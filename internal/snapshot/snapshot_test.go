package snapshot

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotSingleWordBasics(t *testing.T) {
	s := New(2, 8, 16) // 2×24 = 48 bits -> single word
	if !s.Single() || s.Words() != 1 {
		t.Fatalf("geometry: single=%v words=%d", s.Single(), s.Words())
	}
	w0, w1 := s.Writer(0), s.Writer(1)
	w0.Update(10)
	w1.Update(20)
	got := s.Scan()
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("Scan = %v", got)
	}
}

func TestSnapshotMultiWordBasics(t *testing.T) {
	s := New(8, 16, 16) // 8×32 bits -> 4 words
	if s.Single() {
		t.Fatal("expected multi-word object")
	}
	for i := 0; i < 8; i++ {
		s.Writer(i).Update(uint64(i * 11))
	}
	got := s.Scan()
	for i := 0; i < 8; i++ {
		if got[i] != uint64(i*11) {
			t.Fatalf("Scan = %v", got)
		}
	}
}

func TestSnapshotValueTruncation(t *testing.T) {
	s := New(1, 4, 8)
	w := s.Writer(0)
	w.Update(0xFF) // only 4 bits kept
	if got := s.Scan()[0]; got != 0xF {
		t.Fatalf("Scan = %#x", got)
	}
}

func TestSnapshotSameValueRewriteVisible(t *testing.T) {
	// The embedded counter must change even when the value does not, so a
	// concurrent double-collect cannot mistake an active writer for silence.
	s := New(2, 8, 8)
	w := s.Writer(0)
	w.Update(5)
	before := s.col.Collect()[0]
	w.Update(5)
	after := s.col.Collect()[0]
	if before == after {
		t.Fatal("rewriting the same value left the chunk unchanged")
	}
	if got := s.Scan()[0]; got != 5 {
		t.Fatalf("Scan = %d", got)
	}
}

func TestSnapshotBadWidthsPanic(t *testing.T) {
	for _, c := range [][2]int{{0, 8}, {8, 0x41 - 8 + 1}, {60, 8}, {-1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(4,%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(4, c[0], c[1])
		}()
	}
}

func TestSnapshotDefaultSeqBits(t *testing.T) {
	s := New(2, 8, 0)
	if s.seqBits != DefaultSeqBits {
		t.Fatalf("seqBits = %d", s.seqBits)
	}
}

// TestSnapshotScanNeverTorn: writers keep pairs of components consistent
// (component 2i+1 = component 2i + 1); every scan must observe the
// invariant — the atomicity property that separates a snapshot from a
// plain collect. Run in both the single-word and multi-word regimes.
func TestSnapshotScanNeverTorn(t *testing.T) {
	cases := []struct {
		name              string
		writers           int
		dataBits, seqBits int
	}{
		{"single-word", 1, 16, 16},     // 2 components × 32 bits
		{"multi-word", 4, 16, 16},      // 8 components × 32 bits -> 4 words
		{"multi-word-wide", 3, 24, 16}, // 6 components × 40 bits -> 6 words
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nComp := c.writers * 2
			s := New(nComp, c.dataBits, c.seqBits)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < c.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a, b := s.Writer(2*w), s.Writer(2*w+1)
					b.Update(1) // (0, 1): the invariant holds before the first a.Update
					for k := uint64(0); !stop.Load(); k++ {
						// The PAIR (a,b) is not atomic — only each component
						// is. Writers publish a then b; scans may see a
						// fresh a with a stale b, but never a torn single
						// component and never b > a.
						a.Update(k + 1)
						b.Update(k + 2)
					}
				}(w)
			}
			for i := 0; i < 3000; i++ {
				vals := s.Scan()
				for w := 0; w < c.writers; w++ {
					// The writer keeps the invariant b ∈ {a, a+1} (mod
					// 2^dataBits, the component width) at every instant; a
					// linearizable scan must observe it.
					a, b := vals[2*w], vals[2*w+1]
					if b != a && b != (a+1)&(1<<c.dataBits-1) {
						t.Errorf("torn scan: a=%d b=%d (writer %d)", a, b, w)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestSnapshotConcurrentMonotonicScans: each writer publishes an increasing
// counter; per component, successive scans by one scanner must never go
// backwards (scans are linearizable, hence monotone per single-writer
// component).
func TestSnapshotConcurrentMonotonicScans(t *testing.T) {
	const writers = 6
	s := New(writers, 24, 16) // 40-bit chunks -> 6 words (multi-word path)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := s.Writer(w)
			for k := uint64(1); !stop.Load(); k++ {
				wr.Update(k)
			}
		}(w)
	}
	prev := make([]uint64, writers)
	for i := 0; i < 3000; i++ {
		vals := s.Scan()
		for w := 0; w < writers; w++ {
			if vals[w] < prev[w] {
				t.Errorf("component %d went backwards: %d after %d", w, vals[w], prev[w])
			}
			prev[w] = vals[w]
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestSnapshotQuiescentAgreement(t *testing.T) {
	const writers, per = 4, 500
	s := New(writers, 16, 16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := s.Writer(w)
			for k := 1; k <= per; k++ {
				wr.Update(uint64(k))
			}
		}(w)
	}
	wg.Wait()
	vals := s.Scan()
	for w := 0; w < writers; w++ {
		if vals[w] != per {
			t.Fatalf("component %d = %d, want %d", w, vals[w], per)
		}
	}
}
