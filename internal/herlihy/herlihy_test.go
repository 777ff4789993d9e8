package herlihy

import (
	"sync"
	"testing"

	"repro/internal/check"
)

func faa(n int) *Universal[uint64, uint64, uint64] {
	return New(n, uint64(0), func(st uint64, _ int, arg uint64) (uint64, uint64) {
		return st + arg, st
	})
}

func TestHerlihySequential(t *testing.T) {
	u := faa(1)
	if got := u.Apply(0, 5); got != 0 {
		t.Fatalf("first = %d", got)
	}
	if got := u.Apply(0, 3); got != 5 {
		t.Fatalf("second = %d", got)
	}
	if got := u.Read(0); got != 8 {
		t.Fatalf("Read = %d", got)
	}
}

func TestHerlihyResponsesArePermutation(t *testing.T) {
	const n, per = 8, 200
	u := faa(n)
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
				if prev >= n*per || seen[prev] {
					t.Errorf("bad/duplicate previous value %d", prev)
					return
				}
				seen[prev] = true
			}
		}(i)
	}
	wg.Wait()
	if got := u.Read(0); got != n*per {
		t.Fatalf("final = %d, want %d", got, n*per)
	}
}

func TestHerlihyLinearizableHistories(t *testing.T) {
	const n, per, rounds = 3, 4, 15
	for r := 0; r < rounds; r++ {
		u := faa(n)
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

// TestHerlihyAccessGrowth: the construction's per-op shared-access count
// must grow with n (contrast with Sim's constant — the Table 1 comparison).
func TestHerlihyAccessGrowth(t *testing.T) {
	perOp := func(n int) float64 {
		u := faa(n)
		const per = 60
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
		return float64(u.SharedAccesses()) / float64(n*per)
	}
	a1, a16 := perOp(1), perOp(16)
	if a16 <= a1 {
		t.Fatalf("accesses/op did not grow with n: %v vs %v", a1, a16)
	}
}

func TestHerlihyStructState(t *testing.T) {
	type st struct{ a, b int }
	u := New(2, st{}, func(s st, pid int, arg int) (st, int) {
		s.a += arg
		s.b = pid
		return s, s.a
	})
	if got := u.Apply(1, 4); got != 4 {
		t.Fatalf("Apply = %d", got)
	}
	if got := u.Read(1); got.a != 4 || got.b != 1 {
		t.Fatalf("Read = %+v", got)
	}
}

func TestHerlihyN(t *testing.T) {
	if faa(3).N() != 3 {
		t.Fatal("N() wrong")
	}
}
