package simuc_test

import (
	"sync"
	"testing"

	simuc "repro"
)

func TestFacadeUniversalCounter(t *testing.T) {
	u := simuc.NewUniversal(4, uint64(0), func(st *uint64, _ int, arg uint64) uint64 {
		prev := *st
		*st += arg
		return prev
	}, nil, simuc.Config{})
	const n, per = 4, 300
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
	if got := u.Read(); got != n*per {
		t.Fatalf("counter = %d, want %d", got, n*per)
	}
	if s := u.Stats(); s.Ops != n*per {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFacadeUniversalWithClone(t *testing.T) {
	u := simuc.NewUniversal(2, map[string]int{},
		func(st *map[string]int, _ int, key string) int {
			(*st)[key]++
			return (*st)[key]
		},
		func(m map[string]int) map[string]int {
			c := make(map[string]int, len(m))
			for k, v := range m {
				c[k] = v
			}
			return c
		}, simuc.Config{})
	if got := u.Apply(0, "a"); got != 1 {
		t.Fatalf("Apply = %d", got)
	}
	if got := u.Apply(1, "a"); got != 2 {
		t.Fatalf("Apply = %d", got)
	}
}

func TestFacadeConfigVariants(t *testing.T) {
	for _, cfg := range []simuc.Config{
		{},
		{BackoffHigh: -1},                   // disabled backoff
		{BackoffLow: 64, BackoffHigh: 1024}, // custom window
		{BackoffLow: 8, BackoffHigh: 8},     // fixed window
		{BackoffLow: -5, BackoffHigh: 0},    // clamped defaults
	} {
		u := simuc.NewUniversal(2, uint64(0), func(st *uint64, _ int, a uint64) uint64 {
			*st += a
			return *st
		}, nil, cfg)
		u.Apply(0, 1)
		u.Apply(1, 1)
		if got := u.Read(); got != 2 {
			t.Fatalf("cfg %+v: state = %d", cfg, got)
		}
	}
}

func TestFacadeStack(t *testing.T) {
	s := simuc.NewStack[string](2, simuc.Config{})
	s.Push(0, "a")
	s.Push(1, "b")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, ok := s.Pop(0); !ok || v != "b" {
		t.Fatalf("Pop = (%q,%v)", v, ok)
	}
	if v, ok := s.Pop(1); !ok || v != "a" {
		t.Fatalf("Pop = (%q,%v)", v, ok)
	}
	if _, ok := s.Pop(0); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if s.Stats().Ops != 5 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestFacadeQueue(t *testing.T) {
	q := simuc.NewQueue[int](2, simuc.Config{BackoffHigh: -1})
	q.Enqueue(0, 1)
	q.Enqueue(1, 2)
	if v, ok := q.Dequeue(0); !ok || v != 1 {
		t.Fatalf("Dequeue = (%d,%v)", v, ok)
	}
	if v, ok := q.Dequeue(1); !ok || v != 2 {
		t.Fatalf("Dequeue = (%d,%v)", v, ok)
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("Dequeue on empty returned ok")
	}
	if q.Stats().Ops == 0 {
		t.Fatal("queue stats empty")
	}
}

func TestFacadeCollect(t *testing.T) {
	c := simuc.NewCollect(4, 8)
	u := c.Updater(2)
	u.Update(9)
	if got := c.Collect(); got[2] != 9 {
		t.Fatalf("Collect = %v", got)
	}
	if !c.Single() {
		t.Fatal("4×8 bits should fit one word")
	}
	if got := c.Snapshot(); got[2] != 9 {
		t.Fatalf("Snapshot = %v", got)
	}
}

func TestFacadeActiveSet(t *testing.T) {
	a := simuc.NewActiveSet(8)
	m := a.Member(5)
	m.Join()
	if !a.GetSet().Bit(5) {
		t.Fatal("join not visible")
	}
	m.Leave()
	if a.GetSet().Bit(5) {
		t.Fatal("leave not visible")
	}
}

func TestFacadeLargeObject(t *testing.T) {
	l := simuc.NewLargeObject[uint64, uint64, uint64](4)
	item := l.NewRootItem(0)
	add := func(m *simuc.Mem[uint64, uint64, uint64], arg uint64) uint64 {
		v := m.Read(item)
		m.Write(item, v+arg)
		return v
	}
	const n, per = 4, 150
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
	if got := item.Current(); got != n*per {
		t.Fatalf("item = %d, want %d", got, n*per)
	}
}

// TestFacadeOpFuncAlias ensures the exported OpFunc alias is usable as a
// named operation type.
func TestFacadeOpFuncAlias(t *testing.T) {
	l := simuc.NewLargeObject[uint64, uint64, uint64](1)
	item := l.NewRootItem(10)
	var read simuc.OpFunc[uint64, uint64, uint64] = func(m *simuc.Mem[uint64, uint64, uint64], _ uint64) uint64 {
		return m.Read(item)
	}
	if got := l.ApplyOp(0, read, 0); got != 10 {
		t.Fatalf("read = %d", got)
	}
}

func TestFacadeSnapshot(t *testing.T) {
	s := simuc.NewSnapshot(4, 8, 8) // 4 components × 16 bits -> one word
	w := s.Writer(2)
	w.Update(42)
	if got := s.Scan(); got[2] != 42 || got[0] != 0 {
		t.Fatalf("Scan = %v", got)
	}
	if !s.Single() {
		t.Fatal("4 components x 16 bits should fit one word")
	}
}

func TestFacadeSnapshotConcurrent(t *testing.T) {
	const writers = 4
	s := simuc.NewSnapshot(writers, 16, 16)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := s.Writer(id)
			for k := 1; k <= 200; k++ {
				w.Update(uint64(k))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := make([]uint64, writers)
		for i := 0; i < 500; i++ {
			vals := s.Scan()
			for w := 0; w < writers; w++ {
				if vals[w] < prev[w] {
					t.Errorf("component %d went backwards", w)
					return
				}
				prev[w] = vals[w]
			}
		}
	}()
	wg.Wait()
	<-done
}
