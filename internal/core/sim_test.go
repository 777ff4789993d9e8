package core

import (
	"sync"
	"testing"

	"repro/internal/check"
)

// faaSim builds a theoretical-Sim fetch-and-add object: opcode = delta.
func faaSim(n, d int) *Sim[uint64, uint64] {
	return NewSim(n, d, uint64(0), func(st uint64, _ int, op uint64) (uint64, uint64) {
		return st + op, st
	})
}

func TestSimSequential(t *testing.T) {
	u := faaSim(1, 8)
	if got := u.ApplyOp(0, 5); got != 0 {
		t.Fatalf("first op returned %d", got)
	}
	if got := u.ApplyOp(0, 3); got != 5 {
		t.Fatalf("second op returned %d", got)
	}
	if u.Read() != 8 {
		t.Fatalf("state = %d", u.Read())
	}
}

func TestSimOpcodeValidation(t *testing.T) {
	u := faaSim(2, 8)
	assertPanics(t, func() { u.ApplyOp(0, OpBottom) })
	assertPanics(t, func() { u.ApplyOp(0, 256) }) // 9 bits into d=8
	u.ApplyOp(0, 255)                             // max opcode fine
}

func TestSimBadNPanics(t *testing.T) {
	assertPanics(t, func() { faaSim(0, 8) })
}

func TestSimGeometry(t *testing.T) {
	if u := faaSim(8, 8); u.CollectWords() != 1 || u.N() != 8 {
		t.Fatalf("words=%d n=%d", u.CollectWords(), u.N())
	}
	if u := faaSim(16, 8); u.CollectWords() != 2 {
		t.Fatalf("words=%d, want 2 (nd=128)", u.CollectWords())
	}
}

// TestSimResponsesArePermutation mirrors the P-Sim permutation test for the
// theoretical construction, in both the single-word and the multi-word
// collect regimes.
func TestSimResponsesArePermutation(t *testing.T) {
	cases := []struct {
		name string
		n, d int
	}{
		{"single-word", 6, 8},
		{"multi-word", 12, 8}, // nd = 96 > 64: non-linearizable collect path
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const per = 150
			u := faaSim(c.n, c.d)
			total := c.n * per
			seen := make([]bool, total)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := 0; i < c.n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					local := make([]uint64, 0, per)
					for k := 0; k < per; k++ {
						local = append(local, u.ApplyOp(id, 1))
					}
					mu.Lock()
					defer mu.Unlock()
					for _, prev := range local {
						if prev >= uint64(total) || seen[prev] {
							t.Errorf("bad/duplicate previous value %d", prev)
							return
						}
						seen[prev] = true
					}
				}(i)
			}
			wg.Wait()
			if got := u.Read(); got != uint64(total) {
				t.Fatalf("final = %d, want %d", got, total)
			}
		})
	}
}

func TestSimLinearizableHistories(t *testing.T) {
	const n, per, rounds = 3, 4, 20
	for r := 0; r < rounds; r++ {
		u := faaSim(n, 8)
		rec := check.NewRecorder(n * per)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					slot := rec.Invoke(id, check.OpAdd, 2)
					prev := u.ApplyOp(id, 2)
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

// TestSimAccessCountConstant: the headline Theorem 3.1 property — shared
// accesses per op are a constant independent of n while the collect stays
// single-word (15 accesses: 2 updates + 2 attempts × 2 rounds × (LL +
// 1-word collect + SC) + 1 final response read).
func TestSimAccessCountConstant(t *testing.T) {
	perOp := func(n int) float64 {
		u := faaSim(n, 4) // nd ≤ 64 for n ≤ 16
		const per = 50
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					u.ApplyOp(id, 1)
				}
			}(i)
		}
		wg.Wait()
		return float64(u.Stats().SharedAccesses) / float64(n*per)
	}
	a1, a4, a16 := perOp(1), perOp(4), perOp(16)
	if a1 != a4 || a4 != a16 {
		t.Fatalf("accesses/op varies with n: %v %v %v (must be constant)", a1, a4, a16)
	}
	if a1 != 15 { // 2 updates + 2 attempts×(1 LL + 1 collect + 1 SC)×2 rounds + 1 read
		t.Fatalf("accesses/op = %v, want the constant 15", a1)
	}
}

// TestSimAccessCountMultiWord: with nd > 64 the cost per op grows by exactly
// 4·(extra collect words) — the ⌈nd/b⌉ term of Theorem 3.1.
func TestSimAccessCountMultiWord(t *testing.T) {
	u := faaSim(32, 8) // nd = 256 -> 4 words
	u.ApplyOp(0, 1)
	// 2 updates + 4 attempt-rounds × (1 LL + 4 collect + 1 SC) + 1 read
	want := uint64(2 + 4*6 + 1)
	if got := u.Stats().SharedAccesses; got != want {
		t.Fatalf("accesses = %d, want %d", got, want)
	}
}

func TestSimStatsCombined(t *testing.T) {
	const n, per = 4, 100
	u := faaSim(n, 8)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				u.ApplyOp(id, 1)
			}
		}(i)
	}
	wg.Wait()
	s := u.Stats()
	if s.Ops != n*per {
		t.Fatalf("Ops = %d", s.Ops)
	}
	if s.Combined != n*per {
		t.Fatalf("Combined = %d, want %d (exactly-once)", s.Combined, n*per)
	}
}

// TestSimRepeatedSameOpcode: the same opcode reused back-to-back by the same
// process must be applied once per request (the ⊥ alternation keeps requests
// distinguishable even with identical opcodes).
func TestSimRepeatedSameOpcode(t *testing.T) {
	u := faaSim(2, 8)
	for k := 0; k < 50; k++ {
		if got := u.ApplyOp(0, 1); got != uint64(k) {
			t.Fatalf("op %d returned %d", k, got)
		}
	}
}

func TestSimFunctionalStateNotAliased(t *testing.T) {
	// A pure-functional apply on a slice-backed state: each op must build a
	// new slice; sharing would corrupt earlier states.
	u := NewSim(2, 4, []int{0}, func(st []int, _ int, op uint64) ([]int, uint64) {
		ns := append([]int(nil), st...)
		ns[0] += int(op)
		return ns, uint64(st[0])
	})
	u.ApplyOp(0, 1)
	first := u.Read()
	u.ApplyOp(1, 2)
	if first[0] != 1 {
		t.Fatalf("earlier state mutated: %v", first)
	}
	if got := u.Read(); got[0] != 3 {
		t.Fatalf("state = %v", got)
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
