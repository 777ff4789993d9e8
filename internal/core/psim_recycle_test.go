package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/check"
)

// TestPSimRecyclingNoStaleResponses hammers one PSim Fetch&Add counter from
// n goroutines and checks that record recycling never serves a stale
// response: every Apply(+1) returns the counter's previous value, so the N
// responses must be exactly the permutation 0..N-1 — a duplicate would mean
// a reader saw a recycled record's old response row, a gap a lost
// operation. Run under -race this also exercises the hazard-pointer
// protocol's ordering.
func TestPSimRecyclingNoStaleResponses(t *testing.T) {
	n := 8
	per := 5_000
	if testing.Short() {
		per = 1_000
	}
	u := NewPSim(n, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	seen := make([][]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := make([]uint64, per)
			for k := 0; k < per; k++ {
				out[k] = u.Apply(id, 1)
			}
			seen[id] = out
		}(i)
	}
	wg.Wait()

	total := n * per
	got := make([]bool, total)
	for id, out := range seen {
		for _, v := range out {
			if v >= uint64(total) {
				t.Fatalf("thread %d: response %d out of range [0,%d)", id, v, total)
			}
			if got[v] {
				t.Fatalf("thread %d: duplicate response %d — stale response row after record reuse", id, v)
			}
			got[v] = true
		}
	}
	if st := u.Read(); st != uint64(total) {
		t.Fatalf("final state = %d, want %d", st, total)
	}
}

// TestPSimRecyclingSoloInterleavedReads drives the n=1 solo fast path while
// concurrent anonymous Read()ers race against record recycling — the
// anonymous hazard slots are the only thing keeping those reads safe.
func TestPSimRecyclingSoloInterleavedReads(t *testing.T) {
	const ops = 20_000
	u := NewPSim(1, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := u.Read()
				if v < last {
					t.Errorf("Read went backwards: %d after %d", v, last)
					return
				}
				last = v
				runtime.Gosched()
			}
		}()
	}
	for k := 0; k < ops; k++ {
		if got := u.Apply(0, 1); got != uint64(k) {
			t.Fatalf("op %d returned %d", k, got)
		}
	}
	close(stop)
	readers.Wait()
}

// TestPSimReadSnapshotSurvivesRecycling pins the Read() contract under
// WithCloneInto: the snapshot must be deep-copied while hazard-protected, so
// later operations — which rebuild recycled records' state buffers IN PLACE
// — can never rewrite a snapshot already handed to a caller.
func TestPSimReadSnapshotSurvivesRecycling(t *testing.T) {
	u := NewPSim(1, []uint64{0, 0, 0, 0},
		func(st *[]uint64, _ int, d uint64) uint64 {
			for i := range *st {
				(*st)[i] += d
			}
			return (*st)[0]
		},
		WithCloneInto[[]uint64](func(dst, src *[]uint64) {
			*dst = append((*dst)[:0], *src...)
		}))
	u.Apply(0, 1)
	snap := u.Read() // every cell is 1
	// Drive enough operations that the record snap was taken from is retired,
	// recycled, and its state buffer rewritten several times over.
	for k := 0; k < 64; k++ {
		u.Apply(0, 1)
	}
	for i, v := range snap {
		if v != 1 {
			t.Fatalf("snapshot[%d] = %d, want 1 — Read() aliased a recycled buffer", i, v)
		}
	}
}

// TestPSimReadersRaceCloneIntoRecycling races anonymous Read()ers against
// combining rounds that rebuild recycled state buffers in place (the
// largeobject CloneInto shape). Both invariants the review race found are
// checked: -race must stay silent (the copy happens under protection) and
// no reader may observe a torn or later-mutated snapshot (both cells of the
// state always advance together).
func TestPSimReadersRaceCloneIntoRecycling(t *testing.T) {
	const n, per = 2, 10_000
	u := NewPSim(n, []uint64{0, 0}, func(st *[]uint64, _ int, d uint64) uint64 {
		(*st)[0] += d
		(*st)[1] += d
		return (*st)[0]
	}, WithCloneInto[[]uint64](func(dst, src *[]uint64) {
		*dst = append((*dst)[:0], *src...)
	}))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := u.Read(); s[0] != s[1] {
					t.Errorf("torn snapshot: %v", s)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if s := u.Read(); s[0] != n*per {
		t.Fatalf("final state = %v, want [%d %d]", s, n*per, n*per)
	}
}

// TestPSimRecyclingLinearizable records a concurrent history against the
// recycled-record PSim and runs the linearizability checker with the
// counter spec — the spot-check the alloc-free rewrite must not regress.
// (check.Linearizable caps histories at 64 operations, hence the size.)
func TestPSimRecyclingLinearizable(t *testing.T) {
	const n, per = 4, 15
	u := NewPSim(n, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	rec := check.NewRecorder(n * per)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				slot := rec.Invoke(id, check.OpAdd, 1)
				rec.Return(slot, u.Apply(id, 1), true)
			}
		}(i)
	}
	wg.Wait()
	if ok, err := check.Linearizable(rec.Operations(), check.CounterSpec(0)); err != nil {
		t.Fatalf("linearizability search: %v", err)
	} else if !ok {
		t.Fatal("concurrent FAA history over recycled records is not linearizable")
	}
}
