package simmap

// Tests of the round-owned trie (trie.go): a stripe's root lives in its
// recycled P-Sim record and is edited in place, and a round copies each
// node below it once. What must hold is that nothing published ever
// changes: not under concurrent readers while records are reissued, not in
// a snapshot or a Range listing across later rounds, and not in the trie's
// shape after any round.

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// checkStripes runs checkTrie on every stripe's published root and returns
// the number of bindings.
func checkStripes[K comparable, V any](t *testing.T, m *Map[K, V]) int {
	t.Helper()
	total := 0
	for _, s := range m.stripes {
		s.ReadFunc(func(root *node[K, V]) { total += checkTrie(t, root) })
	}
	return total
}

// TestMapModelEveryRound drives Map through every mutating entry point
// against a Go map on a key space deep enough for three trie levels, with
// batches that share path nodes and repeat keys, and runs checkTrie on each
// stripe's published root after every call (each is one round per touched
// stripe).
func TestMapModelEveryRound(t *testing.T) {
	steps, keys := 2000, 1200
	if testing.Short() {
		steps = 500
	}
	m := New[int, int](2, 2)
	ref := map[int]int{}
	rng := rand.New(rand.NewPCG(1, 2))
	batch := func() []int {
		ks := make([]int, 1+rng.IntN(40))
		for j := range ks {
			ks[j] = rng.IntN(keys)
		}
		return ks
	}
	for step := 0; step < steps; step++ {
		id := step & 1
		switch r := rng.IntN(10); {
		case r < 4:
			k, v := rng.IntN(keys), step
			prev, existed := m.Put(id, k, v)
			if rp, re := ref[k]; prev != rp || existed != re {
				t.Fatalf("step %d Put(%d) = (%d,%v), want (%d,%v)", step, k, prev, existed, rp, re)
			}
			ref[k] = v
		case r < 6:
			k := rng.IntN(keys)
			prev, existed := m.Delete(id, k)
			if rp, re := ref[k]; prev != rp || existed != re {
				t.Fatalf("step %d Delete(%d) = (%d,%v), want (%d,%v)", step, k, prev, existed, rp, re)
			}
			delete(ref, k)
		case r < 9:
			ks := batch()
			vs := make([]int, len(ks))
			for j := range vs {
				vs[j] = step*100 + j
			}
			// The same key's repeats apply in key order within a stripe.
			want := make([]int, len(ks))
			wantOK := make([]bool, len(ks))
			for j, k := range ks {
				want[j], wantOK[j] = ref[k], keyIn(ref, k)
				ref[k] = vs[j]
			}
			prevs, existed := m.MSet(id, ks, vs)
			if !slices.Equal(prevs, want) || !slices.Equal(existed, wantOK) {
				t.Fatalf("step %d MSet(%v) = %v %v, want %v %v", step, ks, prevs, existed, want, wantOK)
			}
		default:
			ks := batch()
			want := make([]int, len(ks))
			wantOK := make([]bool, len(ks))
			for j, k := range ks {
				want[j], wantOK[j] = ref[k], keyIn(ref, k)
				delete(ref, k)
			}
			prevs, existed := m.MDelete(id, ks)
			if !slices.Equal(prevs, want) || !slices.Equal(existed, wantOK) {
				t.Fatalf("step %d MDelete(%v) = %v %v, want %v %v", step, ks, prevs, existed, want, wantOK)
			}
		}
		if n := checkStripes(t, m); n != len(ref) {
			t.Fatalf("step %d: stripes hold %d bindings, model %d", step, n, len(ref))
		}
		if step%100 == 0 {
			for k := 0; k < keys; k++ {
				if v, ok := m.Get(k); v != ref[k] || ok != keyIn(ref, k) {
					t.Fatalf("step %d Get(%d) = (%d,%v), want (%d,%v)", step, k, v, ok, ref[k], keyIn(ref, k))
				}
			}
		}
	}
}

// listing returns every binding f visits.
func listing(each func(f func(k, v int) bool)) map[int]int {
	got := map[int]int{}
	each(func(k, v int) bool {
		got[k] = v
		return true
	})
	return got
}

// TestMapSnapshotSurvivesRounds: a Read snapshot taken before 1,000 later
// rounds, and a Range listing started before them, are unchanged after
// them. The rounds overwrite, insert and delete all over the same stripe,
// so they reissue every record and copy every node the snapshot shares.
func TestMapSnapshotSurvivesRounds(t *testing.T) {
	m := New[int, int](1, 1)
	for k := 0; k < 2000; k++ {
		m.Put(0, k, k)
	}
	before := listing(m.Range)
	snap := m.stripes[0].Read()
	rounds := func() {
		for r := 0; r < 1000; r++ {
			switch r % 4 {
			case 0:
				m.Put(0, r, -r)
			case 1:
				m.Delete(0, r)
			case 2:
				m.Put(0, 5000+r, r)
			default:
				m.MSet(0, []int{r, r + 1, r + 500, r + 1000}, []int{1, 2, 3, 4})
			}
		}
	}

	ranged := map[int]int{}
	first := true
	m.Range(func(k, v int) bool {
		if first { // the later rounds run inside the listing
			rounds()
			first = false
		}
		ranged[k] = v
		return true
	})
	if !maps.Equal(ranged, before) {
		t.Fatalf("a Range listing changed under later rounds: %d bindings, want %d", len(ranged), len(before))
	}
	if got := listing(func(f func(k, v int) bool) { snap.each(f) }); !maps.Equal(got, before) {
		t.Fatalf("a Read snapshot changed under later rounds: %d bindings, want %d", len(got), len(before))
	}
	checkTrie(t, &snap)
	if now := listing(m.Range); maps.Equal(now, before) {
		t.Fatal("the later rounds changed nothing; the test checks nothing")
	}
}

// TestMapRecycledRootReaders: readers run Get, MGet and Range on one stripe
// while two writers churn it, so records are reissued under them (run it
// with -race). Stable keys are overwritten but never deleted, churn keys
// come and go; every value carries its key, so a reader that saw another
// round's root entries would read a wrong or missing binding.
func TestMapRecycledRootReaders(t *testing.T) {
	const stable, churn = 256, 256
	writes := 4000
	if testing.Short() {
		writes = 1000
	}
	m := New[uint64, uint64](4, 1) // pids 0, 1 write; 2, 3 MGet
	tag := func(k, seq uint64) uint64 { return k<<32 | seq }
	for k := uint64(0); k < stable; k++ {
		m.Put(0, k, tag(k, 0))
	}
	var done atomic.Bool
	errs := make(chan string, 8)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	check := func(k, v uint64, ok bool) {
		if k < stable && !ok {
			fail("a stable key went missing")
		} else if ok && v>>32 != k {
			fail("a key read another key's value")
		}
	}

	var readers sync.WaitGroup
	for id := 2; id < 4; id++ {
		readers.Add(1)
		go func(id int) {
			defer readers.Done()
			keys := make([]uint64, 16)
			for i := uint64(0); !done.Load(); i++ {
				k := (i * 37) % (stable + churn)
				v, ok := m.Get(k)
				check(k, v, ok)
				for j := range keys {
					keys[j] = (i*16 + uint64(j)*29) % (stable + churn)
				}
				vals, oks := m.MGet(id, keys)
				for j, k := range keys {
					check(k, vals[j], oks[j])
				}
			}
		}(id)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !done.Load() {
			seen := 0
			m.Range(func(k, v uint64) bool {
				check(k, v, true)
				if k < stable {
					seen++
				}
				return true
			})
			if seen != stable {
				fail("a Range listing did not hold every stable key once")
			}
		}
	}()

	var writers sync.WaitGroup
	for id := 0; id < 2; id++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			for i := 0; i < writes; i++ {
				seq := uint64(i + 1)
				k := uint64(i*2+id) % stable
				c := stable + uint64(i*7+id)%churn
				switch i % 3 {
				case 0:
					m.Put(id, k, tag(k, seq))
				case 1:
					m.Put(id, c, tag(c, seq))
				default:
					m.Delete(id, c)
					m.MSet(id, []uint64{k, c, (k + 1) % stable}, []uint64{tag(k, seq), tag(c, seq), tag((k+1)%stable, seq)})
				}
			}
		}(id)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	checkStripes(t, m)
}

// pathCost walks the published trie along each key's path and returns what
// one round writing every key (overwrites only, so the shape is kept) may
// allocate: each distinct node below the root once, plus one copy of each
// of its entry arrays the round writes, plus one leaf per key.
func pathCost[K comparable, V any](m *Map[K, V], keys []K) (allocs, nodes int) {
	type writes struct{ leaves, subs bool }
	touched := map[*node[K, V]]*writes{}
	m.stripes[0].ReadFunc(func(root *node[K, V]) {
		for _, k := range keys {
			h := m.hash(k)
			n := root
			for depth := uint(0); ; depth++ {
				sub, _ := n.slot(h, depth)
				if n != root {
					w := touched[n]
					if w == nil {
						w = &writes{}
						touched[n] = w
					}
					if sub != nil {
						w.subs = true
					} else {
						w.leaves = true
					}
				}
				if sub == nil {
					break
				}
				n = sub
			}
		}
	})
	allocs = len(keys)
	for _, w := range touched {
		allocs++
		if w.subs {
			allocs++
		}
		if w.leaves {
			allocs++
		}
	}
	return allocs, len(touched)
}

// TestMapMSetAllocsBounded: an MSet of b keys on one stripe copies each
// distinct node on its keys' paths once, so it allocates at most those
// nodes (each with the entry arrays the round writes) plus one leaf per
// key written. Copying each key's path separately, as a round of
// independent puts would, costs several times more.
func TestMapMSetAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const size, b = 16384, 32
	m := New[int, int](1, 1)
	for k := 0; k < size; k++ {
		m.Put(0, k, k)
	}
	keys := make([]int, b)
	vals := make([]int, b)
	for j := range keys {
		keys[j] = (j * 7919) % size
	}
	bound, nodes := pathCost(m, keys)
	i := 0
	got := testing.AllocsPerRun(50, func() {
		for j := range vals {
			vals[j] = i + j
		}
		m.MSet(0, keys, vals)
		i++
	})
	if got > float64(bound) {
		t.Errorf("MSet of %d keys at %d keys on one stripe: %v allocs, want <= %d (%d distinct nodes below the root)", b, size, got, bound, nodes)
	}
	t.Logf("MSet of %d keys at %d keys on one stripe: %v allocs (bound %d: %d distinct nodes below the root + one leaf per key)", b, size, got, bound, nodes)
}
