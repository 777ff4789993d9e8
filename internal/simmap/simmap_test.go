package simmap

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/core"
)

func TestMapBasics(t *testing.T) {
	m := New[string, int](2, 4)
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get on empty map returned ok")
	}
	if prev, existed := m.Put(0, "a", 1); existed || prev != 0 {
		t.Fatalf("first Put = (%d,%v)", prev, existed)
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if prev, existed := m.Put(1, "a", 2); !existed || prev != 1 {
		t.Fatalf("second Put = (%d,%v)", prev, existed)
	}
	if prev, existed := m.Delete(0, "a"); !existed || prev != 2 {
		t.Fatalf("Delete = (%d,%v)", prev, existed)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get after Delete returned ok")
	}
	if _, existed := m.Delete(0, "a"); existed {
		t.Fatal("double Delete claimed existence")
	}
}

func TestMapLenAndRange(t *testing.T) {
	m := New[int, int](1, 3)
	for k := 0; k < 20; k++ {
		m.Put(0, k, k*10)
	}
	if m.Len() != 20 {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := map[int]int{}
	m.Range(func(k, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 20 || seen[7] != 70 {
		t.Fatalf("Range saw %d entries", len(seen))
	}
	// Early stop.
	count := 0
	m.Range(func(int, int) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("Range did not stop early: %d", count)
	}
}

func TestMapSingleStripe(t *testing.T) {
	m := New[int, int](2, 0) // stripes clamped to 1
	if m.Stripes() != 1 {
		t.Fatalf("Stripes = %d", m.Stripes())
	}
	m.Put(0, 1, 10)
	m.Put(1, 2, 20)
	if v, _ := m.Get(1); v != 10 {
		t.Fatalf("Get = %d", v)
	}
}

// TestMapQuickEquivalence: random op strings over every entry point vs the
// builtin map, with the trie invariants of every stripe checked after each
// op.
func TestMapQuickEquivalence(t *testing.T) {
	f := func(ops []uint32) bool {
		m := New[uint16, uint32](2, 3)
		ref := map[uint16]uint32{}
		for i, o := range ops {
			id := int(o>>31) & 1
			k := uint16(o>>8) % 48
			keys := []uint16{k, (k + 7) % 48, (k + 19) % 48}
			switch o % 8 {
			case 0, 1, 2:
				prev, existed := m.Put(id, k, uint32(i)+1)
				if rp, re := ref[k]; prev != rp || existed != re {
					return false
				}
				ref[k] = uint32(i) + 1
			case 3:
				prev, existed := m.Delete(id, k)
				if rp, re := ref[k]; prev != rp || existed != re {
					return false
				}
				delete(ref, k)
			case 4:
				vals := []uint32{uint32(i), uint32(i) + 1, uint32(i) + 2}
				prevs, existed := m.MSet(id, keys, vals)
				for j, key := range keys {
					if rp, re := ref[key]; prevs[j] != rp || existed[j] != re {
						return false
					}
					ref[key] = vals[j]
				}
			case 5:
				prevs, existed := m.MDelete(id, keys)
				for j, key := range keys {
					if rp, re := ref[key]; prevs[j] != rp || existed[j] != re {
						return false
					}
					delete(ref, key)
				}
			case 6:
				vals, ok := m.MGet(id, keys)
				for j, key := range keys {
					if rv, rok := ref[key]; vals[j] != rv || ok[j] != rok {
						return false
					}
				}
			case 7:
				got := map[uint16]uint32{}
				m.Range(func(k uint16, v uint32) bool {
					got[k] = v
					return true
				})
				if len(got) != len(ref) {
					return false
				}
				for k, v := range ref {
					if gv, ok := got[k]; !ok || gv != v {
						return false
					}
				}
			}
			if v, ok := m.Get(k); ok != keyIn(ref, k) || v != ref[k] {
				return false
			}
			if m.Len() != len(ref) {
				return false
			}
			for _, s := range m.stripes {
				root := s.Read()
				checkTrie(t, &root)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func keyIn[K comparable, V any](m map[K]V, k K) bool {
	_, ok := m[k]
	return ok
}

// TestMapConcurrentDisjointKeys: writers on disjoint key ranges; every
// binding must survive exactly as written.
func TestMapConcurrentDisjointKeys(t *testing.T) {
	const n, per = 8, 200
	m := New[int, int](n, 8)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				m.Put(id, id*per+k, id)
			}
		}(i)
	}
	wg.Wait()
	if m.Len() != n*per {
		t.Fatalf("Len = %d, want %d", m.Len(), n*per)
	}
	for id := 0; id < n; id++ {
		for k := 0; k < per; k++ {
			if v, ok := m.Get(id*per + k); !ok || v != id {
				t.Fatalf("key %d = (%d,%v)", id*per+k, v, ok)
			}
		}
	}
}

// TestMapConcurrentSameKeyCounter: all processes increment one key through
// Put(prev+1) retries are NOT allowed — instead each process adds distinct
// keys then the counter invariant is checked via per-key last-writer-wins;
// here we verify exactly-once semantics of Put responses on a hot key: the
// sequence of previous values returned across all processes must contain no
// duplicates.
func TestMapConcurrentSameKeyCounter(t *testing.T) {
	const n, per = 6, 150
	m := New[string, uint64](n, 2)
	var mu sync.Mutex
	seen := map[uint64]int{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				v := uint64(id*per+k) + 1
				prev, existed := m.Put(id, "hot", v)
				mu.Lock()
				if existed {
					seen[prev]++
				} else {
					seen[0]++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("previous value %d observed %d times (lost/duplicated update)", v, c)
		}
	}
	if len(seen) != n*per {
		t.Fatalf("observed %d previous values, want %d", len(seen), n*per)
	}
}

// TestMapLinearizablePerKey: per-key histories through the register spec.
func TestMapLinearizablePerKey(t *testing.T) {
	const n, per, rounds = 3, 3, 10
	for r := 0; r < rounds; r++ {
		m := New[string, uint64](n, 2)
		rec := check.NewRecorder(2 * n * per)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					v := uint64(id*per+k) + 1
					slot := rec.Invoke(id, check.OpWrite, v)
					m.Put(id, "k", v)
					rec.Return(slot, 0, false)

					slot = rec.Invoke(id, check.OpRead, 0)
					got, _ := m.Get("k")
					rec.Return(slot, got, false)
				}
			}(i)
		}
		wg.Wait()
		if ok, err := check.Linearizable(rec.Operations(), check.RegisterSpec(0)); err != nil {
			t.Fatalf("linearizability search: %v", err)
		} else if !ok {
			t.Fatalf("round %d: per-key history not linearizable:\n%v", r, rec.Operations())
		}
	}
}

func TestMapStats(t *testing.T) {
	m := New[int, int](2, 4)
	m.Put(0, 1, 1)
	m.Put(1, 2, 2)
	m.Delete(0, 1)
	if s := m.Stats(); s.Ops != 3 {
		t.Fatalf("Stats.Ops = %d", s.Ops)
	}
}

// TestStatsSumAllFields: Map.Stats sums every field of its stripes' Stats
// (SharedAccesses included) and Sharded.Stats sums its shards'.
func TestStatsSumAllFields(t *testing.T) {
	m := New[int, int](2, 4)
	for k := 0; k < 40; k++ {
		m.Put(k%2, k, k)
	}
	m.MSet(0, []int{1, 2, 3}, []int{7, 8, 9})
	m.Delete(1, 5)
	var want core.Stats
	for _, s := range m.stripes {
		want = want.Add(s.Stats())
	}
	got := m.Stats()
	if got.SharedAccesses == 0 {
		t.Fatal("Map.Stats().SharedAccesses = 0 after puts")
	}
	if got != want {
		t.Fatalf("Map.Stats() = %+v, sum over stripes = %+v", got, want)
	}

	sh := NewSharded[int, int](2, 4, 2)
	for k := 0; k < 40; k++ {
		sh.Put(k%2, k, k)
	}
	sh.MDelete(1, []int{1, 2, 3})
	want = core.Stats{}
	for i := 0; i < sh.Shards(); i++ {
		want = want.Add(sh.Shard(i).Stats())
	}
	if got := sh.Stats(); got != want || got.SharedAccesses == 0 {
		t.Fatalf("Sharded.Stats() = %+v, sum over shards = %+v", got, want)
	}
}

func TestMapStructValues(t *testing.T) {
	type rec struct {
		A string
		B []int
	}
	m := New[string, rec](1, 2)
	m.Put(0, "x", rec{A: "hello", B: []int{1, 2}})
	v, ok := m.Get("x")
	if !ok || v.A != "hello" || len(v.B) != 2 {
		t.Fatalf("Get = (%+v,%v)", v, ok)
	}
}
