package xatomic

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFetchAdd64ReturnsPrevious(t *testing.T) {
	var a atomic.Uint64
	if got := FetchAdd64(&a, 5); got != 0 {
		t.Fatalf("first FetchAdd returned %d, want 0", got)
	}
	if got := FetchAdd64(&a, 3); got != 5 {
		t.Fatalf("second FetchAdd returned %d, want 5", got)
	}
	if a.Load() != 8 {
		t.Fatalf("value = %d, want 8", a.Load())
	}
}

func TestFetchAdd64NegativeDelta(t *testing.T) {
	var a atomic.Uint64
	a.Store(10)
	if got := FetchAdd64(&a, ^uint64(0)); got != 10 { // add -1
		t.Fatalf("FetchAdd(-1) returned %d, want 10", got)
	}
	if a.Load() != 9 {
		t.Fatalf("value = %d, want 9", a.Load())
	}
}

// TestFetchAdd64ConcurrentDistinct: with delta 1 from many goroutines, the
// returned previous values must form a permutation of 0..N-1 — the
// fetch-and-add atomicity property everything in the paper builds on.
func TestFetchAdd64ConcurrentDistinct(t *testing.T) {
	const workers, per = 8, 500
	var a atomic.Uint64
	seen := make([]atomic.Bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				prev := FetchAdd64(&a, 1)
				if prev >= workers*per {
					t.Errorf("previous value %d out of range", prev)
					return
				}
				if seen[prev].Swap(true) {
					t.Errorf("previous value %d returned twice", prev)
					return
				}
			}
		}()
	}
	wg.Wait()
	if a.Load() != workers*per {
		t.Fatalf("final value %d, want %d", a.Load(), workers*per)
	}
}

func TestFetchAddQuickSumsMatch(t *testing.T) {
	f := func(deltas []uint64) bool {
		var a atomic.Uint64
		var want uint64
		for _, d := range deltas {
			prev := FetchAdd64(&a, d)
			if prev != want {
				return false
			}
			want += d
		}
		return a.Load() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
