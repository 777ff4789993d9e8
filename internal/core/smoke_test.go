package core

import (
	"sync"
	"testing"
)

// fmulPSim builds a Fetch&Multiply object (the paper's §4 synthetic
// benchmark object) over the GC-based PSim: state is a uint64, the operation
// multiplies it by the argument and returns the previous value.
func fmulPSim(n int) *PSim[uint64, uint64, uint64] {
	return NewPSim(n, uint64(1), func(st *uint64, _ int, arg uint64) uint64 {
		prev := *st
		*st = prev * arg
		return prev
	})
}

func TestPSimSmokeSequential(t *testing.T) {
	u := fmulPSim(1)
	if got := u.Apply(0, 3); got != 1 {
		t.Fatalf("first Fetch&Multiply returned %d, want 1", got)
	}
	if got := u.Apply(0, 5); got != 3 {
		t.Fatalf("second Fetch&Multiply returned %d, want 3", got)
	}
	if got := u.Read(); got != 15 {
		t.Fatalf("state = %d, want 15", got)
	}
}

func TestPSimSmokeConcurrent(t *testing.T) {
	const n, opsPer = 8, 200
	u := NewPSim(n, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
		prev := *st
		*st = prev + arg
		return prev
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := u.Read(); got != n*opsPer {
		t.Fatalf("counter = %d, want %d", got, n*opsPer)
	}
	s := u.Stats()
	if s.Ops != n*opsPer {
		t.Fatalf("stats ops = %d, want %d", s.Ops, n*opsPer)
	}
}

func TestSimSmokeConcurrent(t *testing.T) {
	const n, opsPer = 4, 100
	// Opcode = amount to add (non-zero); response = previous value.
	u := NewSim(n, 8, uint64(0), func(st uint64, _ int, op uint64) (uint64, uint64) {
		return st + op, st
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				u.ApplyOp(id, 2)
			}
		}(i)
	}
	wg.Wait()
	if got := u.Read(); got != n*opsPer*2 {
		t.Fatalf("counter = %d, want %d", got, n*opsPer*2)
	}
}

func TestPSimWordsSmokeConcurrent(t *testing.T) {
	const n, opsPer = 8, 200
	u := faaWord(n, 0)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := readWord(u); got != n*opsPer {
		t.Fatalf("counter = %d, want %d", got, n*opsPer)
	}
}
