package trace

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// payloadMagic ties each event's B word to its A word so a mixed (torn)
// payload is detectable: every writer maintains B = A ^ payloadMagic.
const payloadMagic = 0x9E3779B97F4A7C15

// start opens process id's operation the way core.StatsPlane does for a
// sampled one: the tracer counts the announce and the caller reads the clock.
func start(tr *Tracer, id int) obs.Stamp {
	tr.OpStart(id)
	return obs.Now()
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.OpStart(0)
	tr.OpCommit(0, 1, 1, 2, 3, 4)
	tr.OpServed(0, 1, 1)
	tr.Instant(0, KindCASFail, 1, 2)
	tr.AnonInstant(KindHazardOverflow, 1, 2)
	if evs := tr.Snapshot(); evs != nil {
		t.Fatalf("nil Snapshot = %v, want nil", evs)
	}
	if s, c := tr.Progress(0); s != 0 || c != 0 {
		t.Fatalf("nil Progress = %d,%d", s, c)
	}
	if tr.N() != 0 || tr.Capacity() != 0 || tr.TotalCommitted() != 0 {
		t.Fatal("nil accessors not zero")
	}
}

func TestRoundEventRecorded(t *testing.T) {
	tr := New(2)
	t0 := start(tr, 1)
	tr.OpCommit(1, t0, obs.End(t0), 5, 3, 5)
	evs := tr.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Pid != 1 || ev.Kind != KindRound || ev.A != 5 || ev.B != 3 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.Start != t0 || ev.Dur < 0 {
		t.Fatalf("bad stamps: start=%d t0=%d dur=%d", ev.Start, t0, ev.Dur)
	}
	if s, c := tr.Progress(1); s != 1 || c != 1 {
		t.Fatalf("progress = %d,%d, want 1,1", s, c)
	}
}

// TestUnsampledOpRecordsNothing: a zero start stamp (an operation the
// stats plane did not sample) closes the operation without an event, while
// the progress counters still count it.
func TestUnsampledOpRecordsNothing(t *testing.T) {
	tr := New(1)
	tr.OpStart(0)
	tr.OpCommit(0, 0, 0, 1, 1, 1)
	tr.OpStart(0)
	tr.OpServed(0, 0, 0)
	if evs := tr.Snapshot(); len(evs) != 0 {
		t.Fatalf("unsampled ops recorded %v", evs)
	}
	if s, c := tr.Progress(0); s != 2 || c != 2 {
		t.Fatalf("progress = %d,%d, want 2,2", s, c)
	}
}

// TestSamplingGatesRoundEvents: the caller's sampling decision gates the
// round events. A caller sampling 1 in 4 of 16 operations (a nonzero start
// stamp, with per-round instants only on sampled ones) leaves 4 round and 4
// instant events, while the progress counters count all 16.
func TestSamplingGatesRoundEvents(t *testing.T) {
	tr := New(1)
	for i := 0; i < 16; i++ {
		var t0 obs.Stamp
		if i%4 == 0 {
			t0 = start(tr, 0)
			tr.Instant(0, KindCASFail, uint64(i), 0)
		} else {
			tr.OpStart(0)
		}
		tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
	}
	var rounds, instants int
	for _, ev := range tr.Snapshot() {
		switch ev.Kind {
		case KindRound:
			rounds++
		case KindCASFail:
			instants++
		}
	}
	if rounds != 4 || instants != 4 {
		t.Fatalf("rounds=%d instants=%d, want 4,4", rounds, instants)
	}
	// Progress counters are never sampled.
	if s, c := tr.Progress(0); s != 16 || c != 16 {
		t.Fatalf("progress = %d,%d, want 16,16", s, c)
	}
}

// TestRareBypassesSampling: a slow-path event recorded during an unsampled
// operation (zero start stamp) is kept; Instant applies no sampling gate.
func TestRareBypassesSampling(t *testing.T) {
	tr := New(1)
	tr.OpStart(0)
	tr.Instant(0, KindBackoffGrow, 512, 0)
	tr.OpCommit(0, 0, 0, 1, 1, 1)
	var grows, rounds int
	for _, ev := range tr.Snapshot() {
		switch {
		case ev.Kind == KindBackoffGrow && ev.A == 512:
			grows++
		case ev.Kind == KindRound:
			rounds++
		}
	}
	if grows != 1 || rounds != 0 {
		t.Fatalf("grow events = %d, round events = %d, want 1, 0", grows, rounds)
	}
}

func TestOverwriteOldest(t *testing.T) {
	tr := New(1, WithCapacity(16))
	const total = 100
	for i := 0; i < total; i++ {
		tr.Instant(0, KindRecycleMiss, uint64(i), 0)
	}
	evs := tr.SnapshotPid(0)
	if len(evs) != 16 {
		t.Fatalf("got %d events, want capacity 16", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(total - 16 + i)
		if ev.Seq != wantSeq || ev.A != wantSeq {
			t.Fatalf("event %d: seq=%d a=%d, want %d (newest survive)", i, ev.Seq, ev.A, wantSeq)
		}
	}
}

func TestAnonInstant(t *testing.T) {
	tr := New(1)
	tr.AnonInstant(KindHazardOverflow, 7, 0)
	evs := tr.Snapshot()
	if len(evs) != 1 || evs[0].Pid != AnonPid || evs[0].Kind != KindHazardOverflow || evs[0].A != 7 {
		t.Fatalf("unexpected anon events %+v", evs)
	}
}

// TestConcurrentWritersSnapshotRace is the -race torn-event test: per-pid
// writers hammer small rings (maximizing overwrites) while readers snapshot
// concurrently. Every returned event must be internally consistent
// (B == A ^ payloadMagic) and per-pid sequence stamps strictly monotone.
func TestConcurrentWritersSnapshotRace(t *testing.T) {
	const (
		pids  = 4
		ops   = 20000
		snaps = 200
	)
	tr := New(pids, WithCapacity(16))
	var wg sync.WaitGroup
	for pid := 0; pid < pids; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				t0 := start(tr, pid)
				a := uint64(pid)<<32 | uint64(i)
				tr.Instant(pid, KindCASFail, a, a^payloadMagic)
				tr.OpCommit(pid, t0, obs.End(t0), a, a^payloadMagic, a)
				tr.AnonInstant(KindHazardOverflow, a, a^payloadMagic)
			}
		}(pid)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for s := 0; s < snaps; s++ {
				// Every event in the global snapshot — including the shared
				// anon ring's — must be internally consistent.
				for _, ev := range tr.Snapshot() {
					if ev.B != ev.A^payloadMagic {
						t.Errorf("torn event returned: %+v", ev)
						return
					}
				}
				// Per-pid sequence stamps must be strictly monotone (in
				// particular unique: a torn slot reuse would duplicate one).
				for pid := 0; pid < pids; pid++ {
					evs := tr.SnapshotPid(pid)
					for i := 1; i < len(evs); i++ {
						if evs[i].Seq <= evs[i-1].Seq {
							t.Errorf("pid %d seq not monotone: %d after %d", pid, evs[i].Seq, evs[i-1].Seq)
							return
						}
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	for pid := 0; pid < pids; pid++ {
		if s, c := tr.Progress(pid); s != ops || c != ops {
			t.Fatalf("pid %d progress = %d,%d, want %d,%d", pid, s, c, ops, ops)
		}
	}
	if got := tr.TotalCommitted(); got != pids*ops {
		t.Fatalf("TotalCommitted = %d, want %d", got, pids*ops)
	}
}

func TestSnapshotOrderedByStart(t *testing.T) {
	tr := New(3)
	for i := 0; i < 30; i++ {
		pid := i % 3
		t0 := start(tr, pid)
		tr.OpCommit(pid, t0, obs.End(t0), 1, 1, 1)
	}
	evs := tr.Snapshot()
	if len(evs) != 30 {
		t.Fatalf("got %d events, want 30", len(evs))
	}
	var last obs.Stamp
	for _, ev := range evs {
		if ev.Start < last {
			t.Fatalf("snapshot not ordered by start: %d after %d", ev.Start, last)
		}
		last = ev.Start
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := New(1, WithCapacity(100)).Capacity(); got != 128 {
		t.Fatalf("capacity = %d, want 128", got)
	}
	if got := New(1, WithCapacity(1)).Capacity(); got != 16 {
		t.Fatalf("capacity = %d, want min 16", got)
	}
	if got := New(2).Capacity(); got != DefaultCapacity {
		t.Fatalf("capacity = %d, want default %d", got, DefaultCapacity)
	}
}
