package stack

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/check"
)

// TestStackLIFOOrderSingleThread: a longer single-thread interleaving per
// implementation, checked against a reference model.
func TestStackLIFOOrderSingleThread(t *testing.T) {
	for _, s := range all(1) {
		t.Run(s.Name(), func(t *testing.T) {
			var ref []uint64
			seed := uint64(12345)
			for step := 0; step < 2000; step++ {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				if seed%3 != 0 { // 2/3 pushes
					v := seed
					s.Push(0, v)
					ref = append(ref, v)
				} else {
					v, ok := s.Pop(0)
					if len(ref) == 0 {
						if ok {
							t.Fatalf("step %d: pop on empty returned %d", step, v)
						}
						continue
					}
					want := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					if !ok || v != want {
						t.Fatalf("step %d: pop = (%d,%v), want (%d,true)", step, v, ok, want)
					}
				}
			}
		})
	}
}

// TestStackQuickEquivalence: random op strings vs the reference model
// (property-based sequential equivalence).
func TestStackQuickEquivalence(t *testing.T) {
	for _, mk := range []func() Interface[uint64]{
		func() Interface[uint64] { return NewSimStack[uint64](1) },
		func() Interface[uint64] { return NewTreiber[uint64](1) },
		func() Interface[uint64] { return NewElimination[uint64](1) },
		func() Interface[uint64] { return NewCLHStack[uint64](1) },
		func() Interface[uint64] { return NewFCStack[uint64](1, 0, 0) },
	} {
		s := mk()
		t.Run(s.Name(), func(t *testing.T) {
			f := func(ops []uint16) bool {
				st := mk()
				var ref []uint64
				for _, o := range ops {
					if o%2 == 0 {
						v := uint64(o) + 1
						st.Push(0, v)
						ref = append(ref, v)
					} else {
						v, ok := st.Pop(0)
						if len(ref) == 0 {
							if ok {
								return false
							}
							continue
						}
						want := ref[len(ref)-1]
						ref = ref[:len(ref)-1]
						if !ok || v != want {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStackLinearizable: small adversarial concurrent histories validated by
// the Wing–Gong checker, for every implementation.
func TestStackLinearizable(t *testing.T) {
	const n, per, rounds = 3, 3, 12
	for _, mk := range []func(int) Interface[uint64]{
		func(n int) Interface[uint64] { return NewSimStack[uint64](n) },
		func(n int) Interface[uint64] { return NewTreiber[uint64](n) },
		func(n int) Interface[uint64] { return NewElimination[uint64](n) },
		func(n int) Interface[uint64] { return NewCLHStack[uint64](n) },
		func(n int) Interface[uint64] { return NewFCStack[uint64](n, 0, 0) },
	} {
		name := mk(1).Name()
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				s := mk(n)
				rec := check.NewRecorder(2 * n * per)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for k := 0; k < per; k++ {
							v := uint64(id*per+k) + 1
							slot := rec.Invoke(id, check.OpPush, v)
							s.Push(id, v)
							rec.Return(slot, 0, false)

							slot = rec.Invoke(id, check.OpPop, 0)
							pv, ok := s.Pop(id)
							rec.Return(slot, pv, ok)
						}
					}(i)
				}
				wg.Wait()
				if ok, err := check.Linearizable(rec.Operations(), check.StackSpec()); err != nil {
					t.Fatalf("linearizability search: %v", err)
				} else if !ok {
					t.Fatalf("round %d: history not linearizable:\n%v", r, rec.Operations())
				}
			}
		})
	}
}

func TestSimStackLenAndStats(t *testing.T) {
	s := NewSimStack[uint64](2)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Push(0, 1)
	s.Push(1, 2)
	s.Push(0, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Pop(1)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	st := s.Stats()
	if st.Ops != 4 {
		t.Fatalf("Stats.Ops = %d, want 4", st.Ops)
	}
}

func TestSimStackOptions(t *testing.T) {
	s := NewSimStack[uint64](4, WithBackoff(1, 0))
	const n, per = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				s.Push(id, 1)
				s.Pop(id)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after balanced ops", s.Len())
	}
}

// TestStackPopOrderWithinProducer: values pushed by one producer and popped
// by the same producer (no interleaving pops elsewhere) come back LIFO.
func TestStackPopOrderWithinProducer(t *testing.T) {
	for _, s := range all(2) {
		t.Run(s.Name(), func(t *testing.T) {
			for k := uint64(1); k <= 50; k++ {
				s.Push(0, k)
			}
			for k := uint64(50); k >= 1; k-- {
				v, ok := s.Pop(0)
				if !ok || v != k {
					t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, k)
				}
			}
		})
	}
}

// --- elimination exchanger unit tests ---

func TestExchangerSameKindRefuses(t *testing.T) {
	var e exchanger[uint64]
	// Install a waiting pusher.
	n1 := &node[uint64]{v: 1}
	cell := &xcell[uint64]{offered: n1}
	if !e.slot.CompareAndSwap(nil, cell) {
		t.Fatal("setup failed")
	}
	// A second pusher must refuse immediately.
	if _, ok := e.exchange(&node[uint64]{v: 2}, true, 100); ok {
		t.Fatal("push-push elimination succeeded")
	}
}

func TestExchangerOppositeKindsMatch(t *testing.T) {
	var e exchanger[uint64]
	n1 := &node[uint64]{v: 7}
	var wg sync.WaitGroup
	wg.Add(1)
	var popGot *node[uint64]
	var popOK bool
	go func() {
		defer wg.Done()
		popGot, popOK = e.exchange(nil, false, 1<<20) // popper waits
	}()
	// Pusher arrives and matches (retry until the popper has enlisted).
	var pushOK bool
	for !pushOK {
		_, pushOK = e.exchange(n1, true, 1<<10)
	}
	wg.Wait()
	if !popOK || popGot == nil || popGot.v != 7 {
		t.Fatalf("popper got (%v,%v)", popGot, popOK)
	}
}

func TestExchangerTimesOutOnEmpty(t *testing.T) {
	var e exchanger[uint64]
	if _, ok := e.exchange(&node[uint64]{v: 1}, true, 50); ok {
		t.Fatal("exchange succeeded with no partner")
	}
	if e.slot.Load() != nil {
		t.Fatal("slot not withdrawn after timeout")
	}
}

// TestEliminationHeavyMix: push/pop storm with interleaved exchanges must
// conserve values (stresses the elimination paths specifically by using a
// tiny collision array).
func TestEliminationHeavyMix(t *testing.T) {
	const n, pairs = 8, 400
	s := NewElimination[uint64](n)
	s.timeout = 64 // quick cycles through eliminate/retry
	var mu sync.Mutex
	popped := make(map[uint64]int)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := map[uint64]int{}
			for k := 0; k < pairs; k++ {
				v := uint64(id*pairs+k) + 1
				s.Push(id, v)
				if got, ok := s.Pop(id); ok {
					local[got]++
				}
			}
			mu.Lock()
			for v, c := range local {
				popped[v] += c
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for {
		v, ok := s.Pop(0)
		if !ok {
			break
		}
		popped[v]++
	}
	if len(popped) != n*pairs {
		t.Fatalf("got %d distinct values, want %d", len(popped), n*pairs)
	}
	for v, c := range popped {
		if c != 1 {
			t.Fatalf("value %d seen %d times", v, c)
		}
	}
}

// TestSimStackManyThreadsMultiWordAct: 70 processes -> two Act words;
// conservation across word boundaries.
func TestSimStackManyThreadsMultiWordAct(t *testing.T) {
	const n, per = 70, 20
	s := NewSimStack[uint64](n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				s.Push(id, uint64(id*per+k)+1)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != n*per {
		t.Fatalf("Len = %d, want %d", s.Len(), n*per)
	}
	seen := map[uint64]bool{}
	for {
		v, ok := s.Pop(0)
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n*per {
		t.Fatalf("popped %d values, want %d", len(seen), n*per)
	}
}

// TestStackInterleavedPushersPoppers: dedicated pusher and popper threads
// (not pairs), for every implementation.
func TestStackInterleavedPushersPoppers(t *testing.T) {
	const pushers, poppers, per = 4, 3, 300
	n := pushers + poppers
	for _, s := range all(n) {
		t.Run(s.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			var popCount int64
			var mu sync.Mutex
			seen := map[uint64]bool{}
			for p := 0; p < pushers; p++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						s.Push(id, uint64(id*per+k)+1)
					}
				}(p)
			}
			for c := 0; c < poppers; c++ {
				wg.Add(1)
				go func(idx int) {
					defer wg.Done()
					id := pushers + idx
					for k := 0; k < per; k++ {
						if v, ok := s.Pop(id); ok {
							mu.Lock()
							if seen[v] {
								t.Errorf("value %d popped twice", v)
							}
							seen[v] = true
							popCount++
							mu.Unlock()
						}
					}
				}(c)
			}
			wg.Wait()
			// Drain the leftovers; total distinct = total pushed.
			for {
				v, ok := s.Pop(0)
				if !ok {
					break
				}
				if seen[v] {
					t.Fatalf("value %d popped twice", v)
				}
				seen[v] = true
			}
			if len(seen) != pushers*per {
				t.Fatalf("saw %d distinct values, want %d", len(seen), pushers*per)
			}
		})
	}
}
