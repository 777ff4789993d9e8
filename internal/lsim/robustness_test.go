package lsim

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// TestLSimCrashedAnnouncerDoesNotBlock: process 0 announces an operation and
// joins the active set (Algorithm 7 lines 1–2), then "crashes" — it never
// attempts, leaves or reads its response. Every other process must still
// complete all its operations, and the crashed operation must be applied
// exactly once: a round applies an announcement the round after it became
// visible, and never again while the owner stays joined.
func TestLSimCrashedAnnouncerDoesNotBlock(t *testing.T) {
	const n, per = 4, 200
	l := New[uint64, uint64, uint64](n)
	ctr := l.NewRootItem(0)
	add := func(m *Mem[uint64, uint64, uint64], arg uint64) uint64 {
		v := m.Read(ctr)
		m.Write(ctr, v+arg)
		return v
	}

	arg := uint64(1_000_000)
	l.announce.Publish(0, []lop[uint64, uint64, uint64]{{fn: add, arg: arg}})
	l.members[0].Join()

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				l.ApplyOp(id, add, 1)
			}
		}(i)
	}
	wg.Wait()

	if got, want := ctr.Current(), uint64((n-1)*per)+arg; got != want {
		t.Fatalf("counter = %d, want %d (crashed op applied exactly once)", got, want)
	}
	if rv := l.Rvals(0); rv > uint64((n-1)*per) {
		t.Fatalf("crashed op's recorded response %d impossible", rv)
	}
}

// TestLSimAbandonedRoundRecorded: a round whose simulation finds that the
// state it read is obsolete is abandoned, and must be recorded as a failed
// publish of cause 2 ("abandoned"), in the counters and the flight
// recorder. Process 0 is parked right after loading the state of its second
// round, the round that simulates its own add; process 1 then completes an
// add on the same item, committing later rounds. Resumed, process 0 reads
// the item stamped by a round later than its own and abandons the round.
func TestLSimAbandonedRoundRecorded(t *testing.T) {
	l, item, add := faaLSim(2)
	tr := trace.New(2)
	l.Attach(nil, "", nil, tr)
	parked, resume := make(chan struct{}), make(chan struct{})
	collects := 0 // process 0's PointCollect visits; only its goroutine writes it
	core.SetSchedHook(func(pid int, p core.SchedPoint) {
		if pid != 0 || p != core.PointCollect {
			return
		}
		if collects++; collects == 2 {
			close(parked)
			<-resume
		}
	})
	defer core.SetSchedHook(nil)

	done := make(chan uint64)
	go func() { done <- l.ApplyOp(0, add, 1) }()
	<-parked
	if got := l.ApplyOp(1, add, 10); got != 1 {
		t.Fatalf("process 1's add returned %d, want 1 (process 0's add applied first)", got)
	}
	close(resume)
	if got := <-done; got != 0 {
		t.Fatalf("process 0's add returned %d, want 0", got)
	}
	if item.Current() != 11 {
		t.Fatalf("item = %d, want 11", item.Current())
	}
	if l.Stats().CASFailures == 0 {
		t.Fatal("the abandoned round was not counted as a CAS failure")
	}
	for _, ev := range tr.SnapshotPid(0) {
		if ev.Kind == trace.KindCASFail && ev.B == 2 {
			return
		}
	}
	t.Fatalf("no cause-2 cas_fail event for process 0 in %+v", tr.SnapshotPid(0))
}
