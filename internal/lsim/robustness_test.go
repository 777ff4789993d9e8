package lsim

import (
	"sync"
	"testing"
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
