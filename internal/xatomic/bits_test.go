package xatomic

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {512, 8},
	}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.want {
			t.Fatalf("WordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSnapshotBitOps(t *testing.T) {
	s := NewSnapshot(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		if s.Bit(i) {
			t.Fatalf("bit %d set in zero snapshot", i)
		}
		s.SetBit(i)
		if !s.Bit(i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
	}
	if got := s.PopCount(); got != 5 {
		t.Fatalf("PopCount = %d, want 5", got)
	}
	s.ClearBit(64)
	if s.Bit(64) {
		t.Fatal("bit 64 still set after ClearBit")
	}
	s.FlipBit(64)
	if !s.Bit(64) {
		t.Fatal("bit 64 clear after FlipBit")
	}
	s.FlipBit(64)
	if s.Bit(64) {
		t.Fatal("bit 64 set after second FlipBit")
	}
}

func TestSnapshotBitSearchFirst(t *testing.T) {
	s := NewSnapshot(200)
	if got := s.BitSearchFirst(); got != -1 {
		t.Fatalf("BitSearchFirst on zero = %d, want -1", got)
	}
	s.SetBit(150)
	if got := s.BitSearchFirst(); got != 150 {
		t.Fatalf("BitSearchFirst = %d, want 150", got)
	}
	s.SetBit(3)
	if got := s.BitSearchFirst(); got != 3 {
		t.Fatalf("BitSearchFirst = %d, want 3", got)
	}
}

// TestSnapshotDrainOrder: the clear-lowest loop visits set bits in ascending
// order — the helping order of Algorithm 3.
func TestSnapshotDrainOrder(t *testing.T) {
	s := NewSnapshot(192)
	want := []int{1, 63, 64, 100, 191}
	for _, i := range want {
		s.SetBit(i)
	}
	var got []int
	for {
		k := s.BitSearchFirst()
		if k < 0 {
			break
		}
		got = append(got, k)
		s.ClearBit(k)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if !s.IsZero() {
		t.Fatal("snapshot not zero after drain")
	}
}

func TestSnapshotXorInto(t *testing.T) {
	a, b, d := NewSnapshot(128), NewSnapshot(128), NewSnapshot(128)
	a.SetBit(5)
	a.SetBit(70)
	b.SetBit(70)
	b.SetBit(100)
	a.XorInto(b, d)
	if !d.Bit(5) || !d.Bit(100) || d.Bit(70) {
		t.Fatalf("xor wrong: %v", d)
	}
}

func TestSnapshotIsOnlyBit(t *testing.T) {
	s := NewSnapshot(128)
	s.SetBit(70)
	word, mask := 1, uint64(1)<<(70-64)
	if !s.IsOnlyBit(word, mask) {
		t.Fatal("singleton {70} not recognized")
	}
	if s.IsOnlyBit(0, 1) {
		t.Fatal("wrong word/mask accepted")
	}
	s.SetBit(5) // second bit in another word
	if s.IsOnlyBit(word, mask) {
		t.Fatal("extra bit in another word accepted")
	}
	s.ClearBit(5)
	s.SetBit(71) // second bit in the same word
	if s.IsOnlyBit(word, mask) {
		t.Fatal("extra bit in the same word accepted")
	}
	var empty Snapshot = NewSnapshot(64)
	if empty.IsOnlyBit(0, 1) {
		t.Fatal("empty snapshot accepted as singleton")
	}
}

func TestSnapshotEqualCloneCopy(t *testing.T) {
	a := NewSnapshot(100)
	a.SetBit(42)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.SetBit(43)
	if a.Equal(c) {
		t.Fatal("mutating clone affected or equals original")
	}
	b := NewSnapshot(100)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom result not equal")
	}
	if a.Equal(NewSnapshot(200)) {
		t.Fatal("snapshots of different lengths compared equal")
	}
}

func TestSnapshotXorQuickSelfInverse(t *testing.T) {
	f := func(xs []uint64) bool {
		if len(xs) == 0 {
			xs = []uint64{0}
		}
		a := Snapshot(xs)
		d := make(Snapshot, len(a))
		a.XorInto(a, d)
		return d.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBitsLayouts(t *testing.T) {
	b := NewSharedBits(130)
	if b.Len() != 130 || b.Words() != 3 {
		t.Fatalf("Len=%d Words=%d", b.Len(), b.Words())
	}
	prev := b.AddWord(2, 0b101)
	if prev != 0 {
		t.Fatalf("AddWord previous = %d, want 0", prev)
	}
	if b.LoadWord(2) != 0b101 {
		t.Fatalf("LoadWord = %b", b.LoadWord(2))
	}
	s := b.Load()
	if !s.Bit(128) || s.Bit(129) || !s.Bit(130) {
		t.Fatalf("snapshot bits wrong: %v", s)
	}
}

func TestTogglerAlternates(t *testing.T) {
	b := NewSharedBits(8)
	tg := NewToggler(b, 3)
	if tg.Set() {
		t.Fatal("toggler starts set")
	}
	tg.Toggle()
	if !tg.Set() || b.LoadWord(0) != 1<<3 {
		t.Fatalf("after first toggle: set=%v word=%b", tg.Set(), b.LoadWord(0))
	}
	tg.Toggle()
	if tg.Set() || b.LoadWord(0) != 0 {
		t.Fatalf("after second toggle: set=%v word=%b", tg.Set(), b.LoadWord(0))
	}
}

func TestTogglerMaskWord(t *testing.T) {
	b := NewSharedBits(200)
	tg := NewToggler(b, 130)
	if tg.Word() != 2 || tg.Mask() != 1<<2 {
		t.Fatalf("Word=%d Mask=%b", tg.Word(), tg.Mask())
	}
}

// TestTogglerNeighborIsolation: toggling bit i never disturbs other bits of
// the word, even across many toggles — the no-carry/no-borrow property the
// announcement trick relies on.
func TestTogglerNeighborIsolation(t *testing.T) {
	b := NewSharedBits(64)
	t3 := NewToggler(b, 3)
	t4 := NewToggler(b, 4)
	t4.Toggle() // bit 4 = 1
	for i := 0; i < 101; i++ {
		t3.Toggle()
	}
	w := b.LoadWord(0)
	if w&(1<<4) == 0 {
		t.Fatal("bit 4 disturbed by toggles of bit 3")
	}
	if w&(1<<3) == 0 { // 101 toggles: bit 3 ends set
		t.Fatal("bit 3 not set after odd number of toggles")
	}
	if w != (1<<3)|(1<<4) {
		t.Fatalf("stray bits set: %b", w)
	}
}

// TestTogglersConcurrent: every process toggling its own bit concurrently;
// final word must reflect each process's parity exactly.
func TestTogglersConcurrent(t *testing.T) {
	const n = 32
	b := NewSharedBits(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tg := NewToggler(b, id)
			// process i toggles i+1 times: final bit = (i+1) mod 2
			for k := 0; k <= id; k++ {
				tg.Toggle()
			}
		}(i)
	}
	wg.Wait()
	s := b.Load()
	for i := 0; i < n; i++ {
		want := (i+1)%2 == 1
		if s.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, s.Bit(i), want)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	s := NewSnapshot(64)
	s.SetBit(0)
	str := s.String()
	if len(str) != 64 || str[0] != '1' {
		t.Fatalf("String() = %q", str)
	}
}
