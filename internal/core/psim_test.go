package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/check"
)

// faaPSim builds a fetch-and-add object: Apply returns the previous value.
func faaPSim(n int, opts ...PSimOption[uint64]) *PSim[uint64, uint64, uint64] {
	return NewPSim(n, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
		prev := *st
		*st = prev + arg
		return prev
	}, opts...)
}

func TestPSimSequentialGenericState(t *testing.T) {
	type state struct {
		hi, lo uint64
	}
	u := NewPSim(2, state{}, func(st *state, pid int, arg uint64) uint64 {
		st.lo += arg
		st.hi += uint64(pid)
		return st.lo
	})
	if got := u.Apply(1, 10); got != 10 {
		t.Fatalf("Apply = %d", got)
	}
	if got := u.Apply(0, 5); got != 15 {
		t.Fatalf("Apply = %d", got)
	}
	if st := u.Read(); st.lo != 15 || st.hi != 1 {
		t.Fatalf("state = %+v", st)
	}
}

func TestPSimCloneOptionDeepCopies(t *testing.T) {
	// Slice state: without a deep copy, combining rounds would alias the
	// published slice and mutate history.
	u := NewPSim(4, []uint64{0, 0}, func(st *[]uint64, _ int, arg uint64) uint64 {
		(*st)[0] += arg
		(*st)[1]++
		return (*st)[0]
	}, WithCloneInto(func(dst, src *[]uint64) {
		*dst = append([]uint64(nil), *src...)
	}))
	const n, per = 4, 200
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
	st := u.Read()
	if st[0] != n*per || st[1] != n*per {
		t.Fatalf("state = %v, want [%d %d]", st, n*per, n*per)
	}
}

// TestPSimResponsesArePermutation: concurrent add(1) calls must receive
// previous values forming a permutation of 0..N-1 — this checks both
// exactly-once application (Lemma 3.7 / Corollary 3.6 carried to P-Sim) and
// response consistency (Lemma 3.9).
func TestPSimResponsesArePermutation(t *testing.T) {
	const n, per = 8, 400
	for _, name := range []string{"default", "no-backoff", "wide-backoff"} {
		t.Run(name, func(t *testing.T) {
			var opts []PSimOption[uint64]
			switch name {
			case "no-backoff":
				opts = append(opts, WithBackoff[uint64](1, 0))
			case "wide-backoff":
				opts = append(opts, WithBackoff[uint64](512, 4096))
			}
			u := faaPSim(n, opts...)
			seen := make([]bool, n*per)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					local := make([]uint64, 0, per)
					for k := 0; k < per; k++ {
						local = append(local, u.Apply(id, 1))
					}
					mu.Lock()
					defer mu.Unlock()
					for _, prev := range local {
						if prev >= n*per {
							t.Errorf("previous value %d out of range", prev)
							return
						}
						if seen[prev] {
							t.Errorf("previous value %d duplicated", prev)
							return
						}
						seen[prev] = true
					}
				}(i)
			}
			wg.Wait()
			if got := u.Read(); got != n*per {
				t.Fatalf("final = %d, want %d", got, n*per)
			}
		})
	}
}

// TestPSimPerThreadResponsesMonotonic: a thread adding 1 each time must see
// strictly increasing previous values (its own ops are ordered).
func TestPSimPerThreadResponsesMonotonic(t *testing.T) {
	const n, per = 6, 300
	u := faaPSim(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			last := -1
			for k := 0; k < per; k++ {
				prev := int(u.Apply(id, 1))
				if prev <= last {
					t.Errorf("thread %d: previous values not increasing (%d after %d)", id, prev, last)
					return
				}
				last = prev
			}
		}(i)
	}
	wg.Wait()
}

func TestPSimLinearizableHistories(t *testing.T) {
	// Small adversarial histories validated by the Wing–Gong checker.
	const n, per, rounds = 3, 4, 25
	for r := 0; r < rounds; r++ {
		u := faaPSim(n)
		rec := check.NewRecorder(n * per)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					slot := rec.Invoke(id, check.OpAdd, 1)
					prev := u.Apply(id, 1)
					rec.Return(slot, prev, false)
				}
			}(i)
		}
		wg.Wait()
		if ok, err := check.Linearizable(rec.Operations(), check.CounterSpec(0)); err != nil {
			t.Fatalf("linearizability search: %v", err)
		} else if !ok {
			t.Fatalf("round %d: history not linearizable:\n%v", r, rec.Operations())
		}
	}
}

func TestPSimStatsAccounting(t *testing.T) {
	const n, per = 4, 100
	u := faaPSim(n)
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
	s := u.Stats()
	if s.Ops != n*per {
		t.Fatalf("Ops = %d, want %d", s.Ops, n*per)
	}
	// Every op either published or was served; combined ops cover all ops.
	if s.Combined != n*per {
		t.Fatalf("Combined = %d, want %d (each op applied exactly once)", s.Combined, n*per)
	}
	if s.AvgHelping < 1 {
		t.Fatalf("AvgHelping = %f < 1", s.AvgHelping)
	}
}

// TestPSimHelpingUnderWideBackoff: the wide-window configuration must
// actually produce combining (helping degree > 1 at n > 1) — the mechanism
// behind Figure 2 (right).
func TestPSimHelpingUnderWideBackoff(t *testing.T) {
	const n, per = 8, 300
	u := faaPSim(n, WithBackoff[uint64](512, 4096))
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
	s := u.Stats()
	if s.AvgHelping <= 1.05 {
		t.Fatalf("AvgHelping = %.2f; expected combining under wide backoff", s.AvgHelping)
	}
	if s.ServedByOther == 0 {
		t.Fatal("no operation was served by a helper despite combining")
	}
}

func TestPSimManyThreadsMultiWordAct(t *testing.T) {
	const n, per = 130, 10 // three Act words, dense layout
	u := faaPSim(n)
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
	if got := u.Read(); got != n*per {
		t.Fatalf("final = %d, want %d", got, n*per)
	}
}

func TestPSimPanicsOnBadProcessID(t *testing.T) {
	u := faaPSim(2)
	for _, id := range []int{-1, 2, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Apply(%d) did not panic", id)
				}
			}()
			u.Apply(id, 1)
		}()
	}
}

func TestPSimPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPSim(0) did not panic")
		}
	}()
	faaPSim(0)
}

func TestPSimN(t *testing.T) {
	if faaPSim(7).N() != 7 {
		t.Fatal("N() wrong")
	}
}

func TestPSimReadDoesNotDisturb(t *testing.T) {
	u := faaPSim(2)
	u.Apply(0, 5)
	for i := 0; i < 10; i++ {
		if u.Read() != 5 {
			t.Fatal("Read changed the state")
		}
	}
	if got := u.Apply(1, 1); got != 5 {
		t.Fatalf("Apply after Reads = %d, want 5", got)
	}
}

// TestPSimDistinctArgTypes exercises announcement of composite arguments.
func TestPSimDistinctArgTypes(t *testing.T) {
	type op struct {
		kind string
		val  uint64
	}
	u := NewPSim(2, uint64(0), func(st *uint64, _ int, o op) uint64 {
		switch o.kind {
		case "add":
			*st += o.val
		case "sub":
			*st -= o.val
		}
		return *st
	})
	if got := u.Apply(0, op{"add", 10}); got != 10 {
		t.Fatalf("add = %d", got)
	}
	if got := u.Apply(1, op{"sub", 3}); got != 7 {
		t.Fatalf("sub = %d", got)
	}
}

// TestPSimAccessCountSequential: a single-thread instance takes the solo
// fast path, which performs exactly 2 shared accesses per operation: the
// state read and the publishing store. The announce, Act toggle, Act read,
// and CAS exist only to coordinate with helpers, which cannot exist at n=1.
// The O(k) announce-read term is exercised by the contended tests.
func TestPSimAccessCountSequential(t *testing.T) {
	u := faaPSim(1)
	const per = 100
	for k := 0; k < per; k++ {
		u.Apply(0, 1)
	}
	if got := float64(u.Stats().SharedAccesses) / per; got != 2 {
		t.Fatalf("accesses/op = %v, want 2", got)
	}
}

// TestPSimAccessCountGrowsWithHelping: under forced combining, each
// *publishing* operation reads k announce records, but the combined
// operations pay almost nothing — so accesses per op stay bounded by a
// small constant plus the (amortized) announce reads. Sanity: total
// accesses stay well under Herlihy-style O(n) per op.
func TestPSimAccessCountGrowsWithHelping(t *testing.T) {
	const n, per = 8, 200
	u := faaPSim(n, WithBackoff[uint64](512, 4096))
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
	perOp := float64(u.Stats().SharedAccesses) / float64(n*per)
	if perOp < 4 || perOp > 20 {
		t.Fatalf("accesses/op = %v, expected small constant + amortized k", perOp)
	}
}

// TestPSimQuiescentInvariant: Lemma 3.3 carried to P-Sim — at quiescence
// (every announced operation completed), the published applied vector
// equals the Act vector bit for bit.
func TestPSimQuiescentInvariant(t *testing.T) {
	const n, per = 8, 200
	u := faaPSim(n)
	for round := 0; round < 5; round++ {
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
		ls := u.state.Load()
		act := u.act.Load()
		if !ls.applied.Equal(act) {
			t.Fatalf("round %d: applied %v != Act %v at quiescence", round, ls.applied, act)
		}
	}
}

// TestPSimUnderGCPressure: forced garbage collections between operations
// must not perturb correctness (the GC-published records are the variant's
// whole reclamation story).
func TestPSimUnderGCPressure(t *testing.T) {
	const n, per = 6, 150
	u := faaPSim(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.Apply(id, 1)
				if k%32 == 0 {
					runtime.GC()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := u.Read(); got != n*per {
		t.Fatalf("counter = %d, want %d", got, n*per)
	}
}
