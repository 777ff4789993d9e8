package collect

import (
	"sync"
	"testing"
)

func TestActSetJoinLeave(t *testing.T) {
	a := NewActSet(8)
	m := a.Member(3)
	if m.Joined() {
		t.Fatal("fresh member reports joined")
	}
	m.Join()
	if !m.Joined() || !a.GetSet().Bit(3) {
		t.Fatal("join not visible")
	}
	m.Leave()
	if m.Joined() || a.GetSet().Bit(3) {
		t.Fatal("leave not visible")
	}
}

func TestActSetIdempotent(t *testing.T) {
	a := NewActSet(4)
	m := a.Member(1)
	m.Join()
	m.Join() // no double-add
	if got := a.GetSet(); !got.Bit(1) || got.PopCount() != 1 {
		t.Fatalf("set after double join: %v", got)
	}
	m.Leave()
	m.Leave() // no double-remove
	if got := a.GetSet(); !got.IsZero() {
		t.Fatalf("set after double leave: %v", got)
	}
}

func TestActSetMultiWord(t *testing.T) {
	a := NewActSet(130)
	if a.Words() != 3 {
		t.Fatalf("Words = %d, want 3", a.Words())
	}
	m0, m129 := a.Member(0), a.Member(129)
	m0.Join()
	m129.Join()
	s := a.GetSet()
	if !s.Bit(0) || !s.Bit(129) || s.PopCount() != 2 {
		t.Fatalf("set = %v", s)
	}
}

func TestActSetGetSetInto(t *testing.T) {
	a := NewActSet(8)
	a.Member(5).Join()
	dst := make([]uint64, a.Words())
	a.GetSetInto(dst)
	if dst[0] != 1<<5 {
		t.Fatalf("GetSetInto = %b", dst[0])
	}
}

// TestActSetConcurrentChurn: processes join/leave repeatedly; the final set
// must reflect each member's final state, and no observation may show a bit
// owned by a process that never joined.
func TestActSetConcurrentChurn(t *testing.T) {
	const n, rounds = 16, 400
	a := NewActSet(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := a.Member(id)
			for k := 0; k < rounds; k++ {
				m.Join()
				m.Leave()
			}
			if id%2 == 0 {
				m.Join() // evens end joined
			}
		}(i)
	}
	wg.Wait()
	s := a.GetSet()
	for i := 0; i < n; i++ {
		want := i%2 == 0
		if s.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, s.Bit(i), want)
		}
	}
}
