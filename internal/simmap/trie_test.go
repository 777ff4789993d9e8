package simmap

import (
	"math/bits"
	"sort"
	"testing"
)

// checkTrie walks the trie rooted at root and fails t unless every node
// satisfies the structural invariants: popcount(leafmap) == len(leaves),
// popcount(submap) == len(subs), no position is both, no entry is nil, no
// node below the root is empty or holds a lone leaf, every leaf's hash
// chunks match its path, every bucket holds distinct keys of one hash, and
// no node below the root carries a later token than the root's attempt.
// It returns the number of bindings.
func checkTrie[K comparable, V any](t *testing.T, root *node[K, V]) int {
	t.Helper()
	var walk func(n *node[K, V], path []uint32) int
	walk = func(n *node[K, V], path []uint32) int {
		depth := len(path)
		if depth > 0 && n.tok&^ownBoth > root.tok&^ownBoth {
			t.Fatalf("depth %d: token %#x above the root's %#x", depth, n.tok, root.tok)
		}
		if got := bits.OnesCount32(n.leafmap); got != len(n.leaves) {
			t.Fatalf("depth %d: popcount(leafmap) = %d, len(leaves) = %d", depth, got, len(n.leaves))
		}
		if got := bits.OnesCount32(n.submap); got != len(n.subs) {
			t.Fatalf("depth %d: popcount(submap) = %d, len(subs) = %d", depth, got, len(n.subs))
		}
		if n.leafmap&n.submap != 0 {
			t.Fatalf("depth %d: positions %#x are both leaf and subtree", depth, n.leafmap&n.submap)
		}
		if depth > 0 && n.leafmap|n.submap == 0 {
			t.Fatalf("depth %d: empty subtree", depth)
		}
		if depth > 0 && n.submap == 0 && len(n.leaves) == 1 {
			t.Fatalf("depth %d: subtree holds a lone leaf", depth)
		}
		// at returns the path to the i-th set bit of bitmap.
		at := func(bitmap uint32, i int) []uint32 {
			for ; i > 0; i-- {
				bitmap &= bitmap - 1
			}
			return append(path[:depth:depth], uint32(bits.TrailingZeros32(bitmap)))
		}
		total := 0
		for j, head := range n.leaves {
			if head == nil {
				t.Fatalf("depth %d: nil leaf", depth)
			}
			here := at(n.leafmap, j)
			seen := map[K]bool{}
			for l := head; l != nil; l = l.next {
				if l.hash != head.hash {
					t.Fatalf("bucket mixes hashes %#x and %#x", head.hash, l.hash)
				}
				if seen[l.k] {
					t.Fatalf("bucket repeats key %v", l.k)
				}
				seen[l.k] = true
				for d, want := range here {
					if got := chunk(l.hash, uint(d)); got != want {
						t.Fatalf("leaf %v hash %#x: chunk at depth %d = %d, path has %d", l.k, l.hash, d, got, want)
					}
				}
				total++
			}
		}
		for i, sub := range n.subs {
			if sub == nil {
				t.Fatalf("depth %d: nil subtree", depth)
			}
			total += walk(sub, at(n.submap, i))
		}
		return total
	}
	return walk(root, nil)
}

// tmodel drives the trie with chosen hashes one round per step, as a
// stripe's records do: two roots take turns, each step refilling the other
// one from the current one with cloneRoot and applying one operation there.
// It mirrors every step in a Go map and checks the invariants and every
// binding after each one.
type tmodel struct {
	t     *testing.T
	roots [2]node[string, int]
	cur   int
	hash  map[string]uint64
	ref   map[string]int
	steps int
}

func (m *tmodel) root() *node[string, int] { return &m.roots[m.cur] }

func (m *tmodel) step(op mapOp[string, int]) mapRes[int] {
	next := &m.roots[1-m.cur]
	cloneRoot(next, m.root())
	r := next.apply(op)
	m.cur = 1 - m.cur
	return r
}

func newTModel(t *testing.T, hash map[string]uint64) *tmodel {
	return &tmodel{t: t, hash: hash, ref: map[string]int{}}
}

func (m *tmodel) put(k string, v int) {
	m.t.Helper()
	r := m.step(mapOp[string, int]{h: m.hash[k], k: k, v: v})
	rp, re := m.ref[k]
	if prev, existed := r.prev, r.existed; prev != rp || existed != re {
		m.t.Fatalf("step %d put(%s): (%d,%v), want (%d,%v)", m.steps, k, prev, existed, rp, re)
	}
	m.ref[k] = v
	m.verify()
}

func (m *tmodel) del(k string) {
	m.t.Helper()
	r := m.step(mapOp[string, int]{del: true, h: m.hash[k], k: k})
	rp, re := m.ref[k]
	if prev, existed := r.prev, r.existed; prev != rp || existed != re {
		m.t.Fatalf("step %d delete(%s): (%d,%v), want (%d,%v)", m.steps, k, prev, existed, rp, re)
	}
	delete(m.ref, k)
	m.verify()
}

func (m *tmodel) verify() {
	m.t.Helper()
	m.steps++
	if n := checkTrie(m.t, m.root()); n != len(m.ref) {
		m.t.Fatalf("step %d: trie holds %d bindings, model %d", m.steps, n, len(m.ref))
	}
	for k, h := range m.hash {
		v, ok := m.root().get(h, k)
		rv, rok := m.ref[k]
		if v != rv || ok != rok {
			m.t.Fatalf("step %d get(%s) = (%d,%v), want (%d,%v)", m.steps, k, v, ok, rv, rok)
		}
	}
}

// depthOf returns the depth of the slot holding k's leaf, or -1.
func (m *tmodel) depthOf(k string) int {
	h := m.hash[k]
	n := m.root()
	for depth := 0; ; depth++ {
		bit := uint32(1) << chunk(h, uint(depth))
		switch {
		case n.submap&bit != 0:
			n = n.subs[index(n.submap, bit)]
		case n.leafmap&bit != 0:
			return depth
		default:
			return -1
		}
	}
}

func (m *tmodel) empty() bool {
	r := m.root()
	return r.leafmap|r.submap == 0 && len(r.leaves)+len(r.subs) == 0
}

func TestTrieFullHashCollisions(t *testing.T) {
	const h = 0xdeadbeefcafef00d
	for _, keys := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
		hash := map[string]uint64{}
		for _, k := range keys {
			hash[k] = h
		}
		// Every deletion order, so each key is removed from the bucket's
		// head, middle and tail.
		for _, order := range permutations(keys) {
			m := newTModel(t, hash)
			for i, k := range keys {
				m.put(k, i+1)
			}
			if d := m.depthOf(keys[0]); d != 0 {
				t.Fatalf("colliding bucket at depth %d, want 0", d)
			}
			for i, k := range keys {
				m.put(k, 100+i) // overwrite each in place
			}
			for _, k := range order {
				m.del(k)
				m.del(k) // a second delete finds nothing
			}
			if !m.empty() {
				t.Fatalf("order %v: trie not empty after deleting every key", order)
			}
		}
	}
}

func TestTrieCollisionBucketBesideSplit(t *testing.T) {
	// "a" and "b" collide fully; "c" shares their top 10 bits, so it splits
	// the bucket's slot two levels deep. Deleting "c" must pull the bucket
	// back up to the root.
	hash := map[string]uint64{
		"a": 0xffc0000000000001,
		"b": 0xffc0000000000001,
		"c": 0xffe0000000000000,
	}
	m := newTModel(t, hash)
	m.put("a", 1)
	m.put("b", 2)
	m.put("c", 3)
	if da, dc := m.depthOf("a"), m.depthOf("c"); da != 2 || dc != 2 {
		t.Fatalf("depths a=%d c=%d, want 2 and 2", da, dc)
	}
	m.put("b", 20)
	m.del("c")
	if d := m.depthOf("b"); d != 0 {
		t.Fatalf("bucket at depth %d after its sibling left, want 0", d)
	}
	m.del("a")
	m.del("b")
}

func TestTrieSplitDepthZero(t *testing.T) {
	hash := map[string]uint64{"x": 0x0800000000000000, "y": 0xf800000000000000}
	m := newTModel(t, hash)
	m.put("x", 1)
	m.put("y", 2)
	if len(m.root().leaves) != 2 || m.depthOf("x") != 0 || m.depthOf("y") != 0 {
		t.Fatalf("split at depth 0 did not give two root leaves")
	}
	m.del("x")
	m.del("y")
}

func TestTrieSplitDeepestLevel(t *testing.T) {
	// The hashes differ only in bit 0, which only level 12 reads.
	hash := map[string]uint64{"x": 0x123456789abcdef0, "y": 0x123456789abcdef1}
	m := newTModel(t, hash)
	m.put("x", 1)
	m.put("y", 2)
	if dx, dy := m.depthOf("x"), m.depthOf("y"); dx != 12 || dy != 12 {
		t.Fatalf("depths x=%d y=%d, want 12 and 12", dx, dy)
	}
	m.put("x", 10)
	// A third key parting at depth 6 hangs beside the deep chain.
	hash["z"] = 0x123456781abcdef0
	m.put("z", 3)
	if d := m.depthOf("z"); d != 6 {
		t.Fatalf("depth z=%d, want 6", d)
	}
	// Deleting y collapses the single-child chain below depth 6, then x
	// and z sit side by side at depth 6 until z leaves too.
	m.del("y")
	if d := m.depthOf("x"); d != 6 {
		t.Fatalf("depth x=%d after delete, want 6", d)
	}
	m.del("z")
	if d := m.depthOf("x"); d != 0 {
		t.Fatalf("depth x=%d after both siblings left, want 0", d)
	}
	m.del("x")
}

func TestTrieDeleteCollapsesOneLeafSubtree(t *testing.T) {
	// p and q share chunk 3 at depth 0 and part at depth 1; r has a root
	// slot of its own.
	hash := map[string]uint64{
		"p": 3<<59 | 1<<54,
		"q": 3<<59 | 2<<54,
		"r": 9 << 59,
	}
	m := newTModel(t, hash)
	m.put("p", 1)
	m.put("q", 2)
	m.put("r", 3)
	if m.depthOf("p") != 1 || m.depthOf("q") != 1 {
		t.Fatal("p and q should share a subtree at depth 1")
	}
	m.del("q") // the subtree would hold p alone: p moves up
	if d := m.depthOf("p"); d != 0 {
		t.Fatalf("depth p=%d, want 0", d)
	}
	m.del("missing") // absent key, hash 0: copies nothing
	m.del("p")
	m.del("r")
	if !m.empty() {
		t.Fatal("trie not empty after deleting every key")
	}
}

func permutations(keys []string) [][]string {
	if len(keys) <= 1 {
		return [][]string{append([]string(nil), keys...)}
	}
	var out [][]string
	for i := range keys {
		rest := append(append([]string(nil), keys[:i]...), keys[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{keys[i]}, p...))
		}
	}
	return out
}

// TestTrieRangeVisitsEachOnce: with more keys than one level holds, Range
// visits every binding exactly once.
func TestTrieRangeVisitsEachOnce(t *testing.T) {
	m := New[int, int](1, 2)
	const n = 5000
	for k := 0; k < n; k++ {
		m.Put(0, k, -k)
	}
	var got []int
	m.Range(func(k, v int) bool {
		if v != -k {
			t.Fatalf("Range gave %d -> %d", k, v)
		}
		got = append(got, k)
		return true
	})
	sort.Ints(got)
	if len(got) != n {
		t.Fatalf("Range visited %d bindings, want %d", len(got), n)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("Range visited %d at rank %d", k, i)
		}
	}
	for _, s := range m.stripes {
		root := s.Read()
		checkTrie(t, &root)
	}
}
