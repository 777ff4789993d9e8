package lsim

import (
	"sync"
	"testing"

	"repro/internal/check"
)

type cnt = Mem[uint64, uint64, uint64]

func faaLSim(n int) (*LSim[uint64, uint64, uint64], *Item[uint64], OpFunc[uint64, uint64, uint64]) {
	l := New[uint64, uint64, uint64](n)
	item := l.NewRootItem(0)
	op := func(m *cnt, arg uint64) uint64 {
		v := m.Read(item)
		m.Write(item, v+arg)
		return v
	}
	return l, item, op
}

func TestItemCurrentInitial(t *testing.T) {
	l := New[uint64, uint64, uint64](1)
	it := l.NewRootItem(99)
	if it.Current() != 99 {
		t.Fatalf("Current = %d", it.Current())
	}
}

func TestLSimReadOnlyOp(t *testing.T) {
	l, item, add := faaLSim(1)
	l.ApplyOp(0, add, 10)
	readOp := func(m *cnt, _ uint64) uint64 { return m.Read(item) }
	if got := l.ApplyOp(0, readOp, 0); got != 10 {
		t.Fatalf("read op = %d", got)
	}
	if item.Current() != 10 {
		t.Fatal("read op modified the item")
	}
}

func TestLSimWriteWithoutRead(t *testing.T) {
	l, item, _ := faaLSim(1)
	setOp := func(m *cnt, arg uint64) uint64 {
		m.Write(item, arg)
		return arg
	}
	l.ApplyOp(0, setOp, 77)
	if item.Current() != 77 {
		t.Fatalf("item = %d", item.Current())
	}
}

func TestLSimMultiItemTransfer(t *testing.T) {
	type m2 = Mem[int64, int64, int64]
	const n, per = 6, 150
	l := New[int64, int64, int64](n)
	a := l.NewRootItem(int64(10_000))
	b := l.NewRootItem(int64(0))
	transfer := func(m *m2, amt int64) int64 {
		av := m.Read(a)
		if av < amt {
			return -1
		}
		m.Write(a, av-amt)
		m.Write(b, m.Read(b)+amt)
		return av - amt
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				l.ApplyOp(id, transfer, 1)
			}
		}(i)
	}
	wg.Wait()
	if got := a.Current() + b.Current(); got != 10_000 {
		t.Fatalf("conservation violated: a+b = %d", got)
	}
	if b.Current() != n*per {
		t.Fatalf("b = %d, want %d", b.Current(), n*per)
	}
}

// TestLSimResponsesArePermutation: the exactly-once property under the
// applied/papplied two-round protocol.
func TestLSimResponsesArePermutation(t *testing.T) {
	const n, per = 6, 150
	l, _, add := faaLSim(n)
	seen := make([]bool, n*per)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := make([]uint64, 0, per)
			for k := 0; k < per; k++ {
				local = append(local, l.ApplyOp(id, add, 1))
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
}

func TestLSimLinearizableHistories(t *testing.T) {
	const n, per, rounds = 3, 3, 15
	for r := 0; r < rounds; r++ {
		l, _, add := faaLSim(n)
		rec := check.NewRecorder(n * per)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					slot := rec.Invoke(id, check.OpAdd, 1)
					prev := l.ApplyOp(id, add, 1)
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

func TestLSimSeqAdvances(t *testing.T) {
	l, _, add := faaLSim(1)
	s0 := l.Seq()
	l.ApplyOp(0, add, 1)
	if l.Seq() <= s0 {
		t.Fatalf("seq did not advance: %d -> %d", s0, l.Seq())
	}
}

func TestLSimRvalsPersist(t *testing.T) {
	l, _, add := faaLSim(2)
	l.ApplyOp(0, add, 5)
	if got := l.Rvals(0); got != 0 {
		t.Fatalf("Rvals(0) = %d, want 0", got)
	}
	l.ApplyOp(1, add, 1)
	if got := l.Rvals(0); got != 0 {
		t.Fatalf("Rvals(0) overwritten by another process's op: %d", got)
	}
}

// TestLSimBatchBillsLikeApplyOp: an announcement costs the same shared
// accesses whether it carries one operation or a vector of b — the join and
// leave Fetch&Adds included. Sequential at n = 1 on a one-item op, so every
// bill is exact.
func TestLSimBatchBillsLikeApplyOp(t *testing.T) {
	const per = 20
	measure := func(call func(l *LSim[uint64, uint64, uint64], add OpFunc[uint64, uint64, uint64])) float64 {
		l, _, add := faaLSim(1)
		for k := 0; k < per; k++ {
			call(l, add)
		}
		return float64(l.Stats().SharedAccesses) / per
	}
	want := measure(func(l *LSim[uint64, uint64, uint64], add OpFunc[uint64, uint64, uint64]) {
		l.ApplyOp(0, add, 1)
	})
	for _, b := range []int{1, 2, 8} {
		args := make([]uint64, b)
		var res []uint64
		got := measure(func(l *LSim[uint64, uint64, uint64], add OpFunc[uint64, uint64, uint64]) {
			res = l.ApplyBatch(0, add, args, res)
		})
		if got != want {
			t.Errorf("ApplyBatch of %d bills %v accesses per announcement, ApplyOp %v", b, got, want)
		}
	}
}

// TestLSimAccessCountScalesWithW: the O(kw) bound — sequential runs (k=1)
// with footprints w=1 and w=4 must differ by roughly the item SC/LL cost,
// not by the object size.
func TestLSimAccessCountScalesWithW(t *testing.T) {
	measure := func(w int) float64 {
		l := New[uint64, uint64, uint64](1)
		items := make([]*Item[uint64], w)
		for i := range items {
			items[i] = l.NewRootItem(0)
		}
		op := func(m *cnt, arg uint64) uint64 {
			for _, it := range items {
				m.Write(it, m.Read(it)+arg)
			}
			return 0
		}
		const per = 50
		for k := 0; k < per; k++ {
			l.ApplyOp(0, op, 1)
		}
		return float64(l.Stats().SharedAccesses) / per
	}
	a1, a4 := measure(1), measure(4)
	if a4 <= a1 {
		t.Fatalf("w=4 not costlier than w=1: %v vs %v", a4, a1)
	}
	// Each extra item costs one LL (first read) + one LL/SC pair at
	// write-back per executing round; it must NOT cost a full state copy.
	if a4-a1 > 30 {
		t.Fatalf("per-item cost too high: w=1 %v, w=4 %v", a1, a4)
	}
}

func TestLSimStats(t *testing.T) {
	const n, per = 4, 80
	l, _, add := faaLSim(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				l.ApplyOp(id, add, 1)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Ops != n*per {
		t.Fatalf("ops = %d", st.Ops)
	}
	if st.Combined != n*per {
		t.Fatalf("combined = %d, want %d (exactly-once)", st.Combined, n*per)
	}
	if st.CASSuccesses == 0 {
		t.Fatal("no successful SC recorded")
	}
}

// TestLSimAllocSharedIdentity: two items allocated by one operation must be
// distinct, and allocations across sequential operations must be distinct.
func TestLSimAllocSharedIdentity(t *testing.T) {
	l := New[uint64, uint64, uint64](1)
	reg := l.NewRootItem(0)
	var got []*Item[uint64]
	alloc2 := func(m *cnt, _ uint64) uint64 {
		a := m.Alloc()
		b := m.Alloc()
		if a == b {
			t.Error("Alloc returned the same item twice in one op")
		}
		m.Write(a, 1)
		m.Write(b, 2)
		got = append(got, a, b)
		return 0
	}
	l.ApplyOp(0, alloc2, 0)
	l.ApplyOp(0, alloc2, 0)
	_ = reg
	if len(got) != 4 {
		t.Fatalf("allocated %d items", len(got))
	}
	seen := map[*Item[uint64]]bool{}
	for _, it := range got {
		if seen[it] {
			t.Fatal("item identity reused across operations")
		}
		seen[it] = true
	}
	if got[0].Current() != 1 || got[1].Current() != 2 {
		t.Fatalf("allocated item values wrong: %d %d", got[0].Current(), got[1].Current())
	}
}

func TestLSimN(t *testing.T) {
	if New[uint64, uint64, uint64](5).N() != 5 {
		t.Fatal("N() wrong")
	}
}
