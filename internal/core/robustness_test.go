package core

import (
	"sync"
	"testing"

	"repro/internal/xatomic"
)

// The paper's robustness claim (§1): flat combining is blocking — "a thread
// holding the lock could be preempted causing all other threads to wait or
// it may fail causing the entire system to block" — whereas Sim is
// wait-free: a crashed thread can never prevent others from completing, and
// an operation the crashed thread had already announced is still applied by
// helpers. These tests simulate the crash by driving the announcement steps
// of the protocol directly and never calling the rest of Apply.

// TestPSimCrashedAnnouncerDoesNotBlock: process 0 announces an operation
// (announce write + Act toggle) and "crashes". Every other process must
// still complete all its operations, and the crashed process's operation
// must be applied exactly once by a helper.
func TestPSimCrashedAnnouncerDoesNotBlock(t *testing.T) {
	const n, per = 4, 200
	u := faaPSim(n)

	// Simulate process 0 crashing right after the announcement steps
	// (Algorithm 3 lines 1-3).
	arg := uint64(1_000_000)
	u.announce.Publish(0, []uint64{arg})
	xatomic.NewToggler(u.act, 0).Toggle()

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()

	// All live processes completed (we got here: wait-freedom held), and the
	// crashed announcement was helped exactly once.
	want := uint64((n-1)*per) + arg
	if got := u.Read(); got != want {
		t.Fatalf("state = %d, want %d (crashed op applied exactly once)", got, want)
	}
	// The response for the crashed process is recorded in the state, as a
	// row of one.
	st := u.state.Load()
	if row := st.res.Row(0); len(row) != 1 || row[0] >= uint64((n-1)*per)+1 {
		t.Fatalf("crashed op's recorded response row %v impossible", row)
	}
}

// TestPSimWordsCrashedAnnouncerDoesNotBlock: same property for the pooled
// P-Sim.
func TestPSimWordsCrashedAnnouncerDoesNotBlock(t *testing.T) {
	const n, per = 4, 200
	u := faaWord(n, 4, DefaultUpdateHorizon)

	u.announce[0].args[0].Store(777)
	u.announce[0].cnt.Store(1)
	xatomic.NewToggler(u.act, 0).Toggle()

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := readWord(u); got != (n-1)*per+777 {
		t.Fatalf("state = %d, want %d", got, (n-1)*per+777)
	}
}

// TestSimCrashedAnnouncerDoesNotBlock: the theoretical construction applies
// a crashed process's announced opcode and keeps running. (The announcement
// is never withdrawn, so helpers apply it once — applied[i] stays true — and
// continue unaffected.)
func TestSimCrashedAnnouncerDoesNotBlock(t *testing.T) {
	const n, per = 3, 150
	u := faaSim(n, 8)

	// Crash after line 1 of ApplyOp: the collect announcement is written but
	// Attempt is never called.
	u.updater(0).Update(200)

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.ApplyOp(id, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := u.Read(); got != (n-1)*per+200 {
		t.Fatalf("state = %d, want %d", got, (n-1)*per+200)
	}
}
