package core

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/xatomic"
)

// wideCounter builds a PSimWords object with `words` counter cells; each
// operation adds 1 to cell (arg mod words) and returns that cell's previous
// value. With words == 1 it is a one-word fetch-and-increment.
func wideCounter(n, c, words int) *PSimWords {
	return NewPSimWords(n, c, make([]uint64, words), func(st []uint64, _ int, arg uint64) uint64 {
		cell := arg % uint64(len(st))
		prev := st[cell]
		st[cell] += 1
		return prev
	})
}

// faaWord builds a pooled fetch-and-add object over a one-word state.
func faaWord(n, c int) *PSimWords {
	return NewPSimWords(n, c, []uint64{0}, func(st []uint64, _ int, arg uint64) uint64 {
		prev := st[0]
		st[0] += arg
		return prev
	})
}

// readWord returns the state of a one-word PSimWords.
func readWord(u *PSimWords) uint64 {
	var st [1]uint64
	u.ReadInto(st[:])
	return st[0]
}

func TestPSimWordsSequential(t *testing.T) {
	t.Run("four-word", func(t *testing.T) {
		u := wideCounter(1, 2, 4)
		if got := u.Apply(0, 2); got != 0 {
			t.Fatalf("first = %d", got)
		}
		if got := u.Apply(0, 2); got != 1 {
			t.Fatalf("second = %d", got)
		}
		st := make([]uint64, 4)
		u.ReadInto(st)
		if st[2] != 2 || st[0] != 0 {
			t.Fatalf("state = %v", st)
		}
	})
	t.Run("one-word", func(t *testing.T) {
		u := faaWord(1, 2)
		if got := u.Apply(0, 7); got != 0 {
			t.Fatalf("first = %d", got)
		}
		if got := u.Apply(0, 3); got != 7 {
			t.Fatalf("second = %d", got)
		}
		if got := readWord(u); got != 10 {
			t.Fatalf("state = %d", got)
		}
	})
	t.Run("generic-transition", func(t *testing.T) {
		// A non-commutative transition: st' = st*3 + arg; response = st.
		// Responses must chain: resp_{k+1} = resp_k*3 + arg_k.
		u := NewPSimWords(2, 2, []uint64{1}, func(st []uint64, _ int, arg uint64) uint64 {
			prev := st[0]
			st[0] = prev*3 + arg
			return prev
		})
		if prev := u.Apply(0, 5); prev != 1 {
			t.Fatalf("prev = %d", prev)
		}
		if got := u.Apply(1, 2); got != 8 {
			t.Fatalf("second prev = %d", got)
		}
		if got := readWord(u); got != 26 {
			t.Fatalf("state = %d", got)
		}
	})
}

func TestPSimWordsValidation(t *testing.T) {
	t.Run("one-word", func(t *testing.T) {
		assertPanics(t, func() { NewPSimWords(0, 2, []uint64{0}, nil) })
		assertPanics(t, func() { NewPSimWords(2, 1, []uint64{0}, nil) }) // C must be >= 2
		assertPanics(t, func() {
			NewPSimWords(8192, 16, []uint64{0}, nil) // pool index overflows 16 bits
		})
		if u := NewPSimWords(2, 0, []uint64{0}, nil); u.c != DefaultPoolPerThread {
			t.Fatalf("C=0 selected %d records per thread, want the default %d", u.c, DefaultPoolPerThread)
		}
	})
	t.Run("empty-state", func(t *testing.T) {
		assertPanics(t, func() { NewPSimWords(2, 2, nil, nil) })
	})
}

// TestPSimWordsConcurrentSums: concurrent increments sum exactly, with the
// backoff disabled too, and concurrent anonymous readers see the cell total
// in range and never going backwards.
func TestPSimWordsConcurrentSums(t *testing.T) {
	const n, per = 8, 300
	for _, tc := range []struct {
		name       string
		words      int
		backoffOff bool
		readers    int
	}{
		{"eight-word", 8, false, 0},
		{"one-word/backoff-off", 1, true, 0},
		{"one-word/readers", 1, false, 2},
		{"eight-word/readers", 8, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := wideCounter(n, 2, tc.words)
			if tc.backoffOff {
				u.SetBackoff(1, 0)
			}
			total := func(st []uint64) uint64 {
				u.ReadInto(st)
				var sum uint64
				for _, v := range st {
					sum += v
				}
				return sum
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < tc.readers; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					st := make([]uint64, tc.words)
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						v := total(st)
						if v > n*per || v < last {
							t.Errorf("read %d after %d (max %d)", v, last, n*per)
							return
						}
						last = v
					}
				}()
			}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						u.Apply(id, uint64(k))
					}
				}(i)
			}
			wg.Wait()
			close(stop)
			readers.Wait()
			if got := total(make([]uint64, tc.words)); got != n*per {
				t.Fatalf("total = %d, want %d", got, n*per)
			}
		})
	}
}

// TestPSimWordsResponsesPermutationPerCell: per cell, the previous values
// returned must form a permutation of 0..hits-1 (exactly-once), on a
// two-cell state and on a one-word state.
func TestPSimWordsResponsesPermutationPerCell(t *testing.T) {
	const n, per = 8, 240
	for _, tc := range []struct {
		name     string
		c, cells int
	}{
		{"two-word", 2, 2},
		{"one-word/packed", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := wideCounter(n, tc.c, tc.cells)
			hits := uint64(n * per / tc.cells)
			var mu sync.Mutex
			seen := make([]map[uint64]bool, tc.cells)
			for c := range seen {
				seen[c] = map[uint64]bool{}
			}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					type rec struct{ cell, prev uint64 }
					local := make([]rec, 0, per)
					for k := 0; k < per; k++ {
						cell := uint64(k % tc.cells)
						local = append(local, rec{cell, u.Apply(id, cell)})
					}
					mu.Lock()
					defer mu.Unlock()
					for _, r := range local {
						if r.prev >= hits || seen[r.cell][r.prev] {
							t.Errorf("cell %d: previous value %d out of range or duplicated", r.cell, r.prev)
							return
						}
						seen[r.cell][r.prev] = true
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestPSimWordsLinearizable(t *testing.T) {
	const n, per, rounds = 3, 4, 20
	for _, tc := range []struct {
		name  string
		words int
	}{
		{"one-word", 1},
		{"two-word", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				u := NewPSimWords(n, 2, make([]uint64, tc.words), func(st []uint64, _ int, arg uint64) uint64 {
					prev := st[0]
					st[0] += arg
					for w := 1; w < len(st); w++ {
						st[w] ^= prev // further words exercise multi-word copies
					}
					return prev
				})
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
		})
	}
}

func TestPSimWordsStatsAndAccessors(t *testing.T) {
	t.Run("five-word", func(t *testing.T) {
		u := wideCounter(3, 2, 5)
		if u.N() != 3 || u.StateWords() != 5 {
			t.Fatalf("N=%d StateWords=%d", u.N(), u.StateWords())
		}
		u.Apply(0, 1)
		u.Apply(1, 1)
		if s := u.Stats(); s.Ops != 2 || s.Combined != 2 {
			t.Fatalf("stats: %+v", s)
		}
	})
	t.Run("one-word/accessors", func(t *testing.T) {
		if u := faaWord(5, 2); u.N() != 5 || u.StateWords() != 1 {
			t.Fatalf("N=%d StateWords=%d", u.N(), u.StateWords())
		}
	})
	t.Run("one-word/concurrent", func(t *testing.T) {
		const n, per = 4, 100
		u := faaWord(n, 4)
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
		if s := u.Stats(); s.Ops != n*per || s.Combined != n*per {
			t.Fatalf("stats = %+v", s)
		}
	})
}

// TestPSimWordsSmallPoolStress: C=2 is the tightest legal pool; heavy churn
// maximizes record recycling and exercises the seq1/seq2 consistency path,
// on a 16-word state and on a one-word state.
func TestPSimWordsSmallPoolStress(t *testing.T) {
	const n, per = 8, 400
	for _, tc := range []struct {
		name  string
		words int
	}{
		{"sixteen-word", 16},
		{"one-word/packed", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := NewPSimWords(n, 2, make([]uint64, tc.words), func(st []uint64, _ int, arg uint64) uint64 {
				prev := st[0]
				st[0] += arg
				st[len(st)-1] = st[0] // keep the far word in play
				return prev
			})
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
			st := make([]uint64, tc.words)
			u.ReadInto(st)
			if st[0] != n*per || st[len(st)-1] != n*per {
				t.Fatalf("state = %v", st)
			}
		})
	}
}

// TestPSimWordsUnpublishedSuccessorRejected: a reader that read P before a
// record's owner republished can copy, seq-consistent, a successor the owner
// has built there but not yet published; only the P re-check can tell, and
// the round's early return (Done) must refuse the copy.
func TestPSimWordsUnpublishedSuccessorRejected(t *testing.T) {
	u := faaWord(1, 2)
	u.Apply(0, 1) // record 0 published, state 1
	idx, stamp := u.p.Load()
	u.Apply(0, 1) // record 1 published, state 2; record 0 is rewritten next
	scratch := &wordsThread{
		u:       u,
		applied: xatomic.NewSnapshot(1),
		st:      make([]uint64, 1),
		bn:      make([]uint64, 1),
		brv:     make([]uint64, WordBatchBudget),
	}
	var consistent, current bool
	SetSchedHook(func(_ int, p SchedPoint) {
		if p == PointCAS { // record 0 now holds state 3, unpublished
			consistent = u.copyState(&u.pool[idx], scratch)
			scratch.lpIdx, scratch.lpStamp = idx, stamp
			current = scratch.Done() // the round's early return must veto it
		}
	})
	defer SetSchedHook(nil)
	u.Apply(0, 1)
	if !consistent || scratch.st[0] != 3 || current {
		t.Fatalf("copy consistent=%v st=%d, P re-check passed=%v; want true, 3, false", consistent, scratch.st[0], current)
	}
}

// TestPSimWordsIndexRecurrenceRejected: P's pool index alone is not a
// version. At n = 2 and C = 2 process 1 rotates through two records, so two
// of its publishes bring a loaded index back with its stamp two higher. A
// round of process 0 that loaded P before them must lose its publish, or
// it installs a successor built from a state that misses both.
func TestPSimWordsIndexRecurrenceRejected(t *testing.T) {
	u := faaWord(2, 2)
	u.Apply(1, 1) // P names process 1's record 2 at stamp 1
	r := u.thread(0)
	u.announce[0].args[0].Store(8)
	u.announce[0].cnt.Store(1)
	applied, ok := r.Load()
	if !ok || r.lpIdx != 2 || r.lpStamp != 1 {
		t.Fatalf("loaded P = ⟨%d, %d⟩ (consistent %v), want ⟨2, 1⟩", r.lpIdx, r.lpStamp, ok)
	}
	u.Apply(1, 2) // record 3, stamp 2
	u.Apply(1, 4) // record 2 again, stamp 3
	if idx, stamp := u.p.Load(); idx != r.lpIdx || stamp != r.lpStamp+2 {
		t.Fatalf("P = ⟨%d, %d⟩, want index %d back at stamp %d", idx, stamp, r.lpIdx, r.lpStamp+2)
	}
	active := applied.Clone()
	active.FlipBit(0)
	r.Build(active)
	r.Serve(0)
	r.Seal()
	if r.Publish() {
		t.Fatalf("a round that loaded ⟨2, 1⟩ published over ⟨2, 3⟩")
	}
	if got := readWord(u); got != 1+2+4 {
		t.Fatalf("state = %d, want %d (process 1's three adds)", got, 1+2+4)
	}
	if got := u.Apply(0, 8); got != 7 || readWord(u) != 15 {
		t.Fatalf("after the lost round: Apply = %d, state = %d; want 7, 15", got, readWord(u))
	}
}

// TestPSimWordsAccessCountSequential: the pooled P-Sim has no solo round, so
// at n=1 each operation pays the announced round's exact bill: 2 for the
// announce and toggle, 2 for the LL and record copy, 1 Act word, 1 served
// process and 1 SC.
func TestPSimWordsAccessCountSequential(t *testing.T) {
	u := faaWord(1, 0)
	const per = 100
	for k := 0; k < per; k++ {
		u.Apply(0, 1)
	}
	if got := float64(u.Stats().SharedAccesses) / per; got != 7 {
		t.Fatalf("accesses/op = %v, want 7", got)
	}
}

// TestPSimWordsAccessCountGrowsWithHelping: the pooled P-Sim bills like
// P-Sim under forced combining — a small constant plus the amortized
// announce reads of the publishing operations.
func TestPSimWordsAccessCountGrowsWithHelping(t *testing.T) {
	const n, per = 8, 200
	u := faaWord(n, 0)
	u.SetBackoff(512, 4096)
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
	t.Logf("accesses/op = %.2f", perOp)
	if perOp < 5 || perOp > 20 {
		t.Fatalf("accesses/op = %v, expected small constant + amortized k", perOp)
	}
}
