package xatomic

import (
	"sync"
	"testing"
)

// TestTogglersConcurrentPaddedLayout mirrors TestTogglersConcurrent on the
// padded layout, covering its AddWord/LoadWord paths under contention.
func TestTogglersConcurrentPaddedLayout(t *testing.T) {
	const n = 130 // three words
	b := NewSharedBitsPadded(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tg := NewToggler(b, id)
			for k := 0; k <= id%3; k++ { // 1..3 toggles
				tg.Toggle()
			}
		}(i)
	}
	wg.Wait()
	s := b.Load()
	for i := 0; i < n; i++ {
		want := (i%3+1)%2 == 1
		if s.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, s.Bit(i), want)
		}
	}
}

// TestTogglerReturnsPreviousWord: the F&A's previous-word return value is
// what P-Sim uses nowhere, but the primitive must still report it exactly.
func TestTogglerReturnsPreviousWord(t *testing.T) {
	b := NewSharedBits(8)
	t0 := NewToggler(b, 0)
	t1 := NewToggler(b, 1)
	if prev := t0.Toggle(); prev != 0 {
		t.Fatalf("prev = %b", prev)
	}
	if prev := t1.Toggle(); prev != 1 {
		t.Fatalf("prev = %b, want bit0 set", prev)
	}
	if prev := t0.Toggle(); prev != 0b11 {
		t.Fatalf("prev = %b, want both bits", prev)
	}
}

// TestSnapshotZeroLength: WordsFor(0) keeps a one-word minimum so empty
// vectors stay usable.
func TestSnapshotZeroLength(t *testing.T) {
	s := NewSnapshot(0)
	if len(s) != 1 || !s.IsZero() {
		t.Fatalf("zero-length snapshot: %v", s)
	}
}

// TestLLSCManyGenerations: long LL/SC chains keep exact semantics (each
// generation's stale tag must fail).
func TestLLSCManyGenerations(t *testing.T) {
	l := NewLLSC(0)
	var stale []Tag[int]
	for g := 0; g < 100; g++ {
		v, tag := l.LL()
		if v != g {
			t.Fatalf("generation %d reads %d", g, v)
		}
		stale = append(stale, tag)
		if !l.SC(tag, g+1) {
			t.Fatalf("SC failed at generation %d", g)
		}
	}
	for i, tag := range stale {
		if l.SC(tag, -1) {
			t.Fatalf("stale tag %d succeeded", i)
		}
	}
}
