package simmap

// A stripe's state: a persistent 32-way bitmap-indexed hash trie (a HAMT).
// Nodes and leaves are immutable once built; put and delete copy the one
// node per level on the key's path and share everything else, so a write
// copies O(log32 n) nodes instead of a list prefix.
//
// The trie consumes a key's 64-bit hash top bits first, five bits per
// level: levels 0..11 take 60 bits and level 12 the last four. The stripe
// index is taken from the hash's low bits, so keys of one stripe still
// spread over the root's 32 positions. Two keys whose full 64-bit hashes
// are equal share one leaf position as a short bucket chained through
// leaf.next.

import "math/bits"

const trieBits = 5

// chunk returns the position of hash h at trie level depth. At level 12 it
// is the hash's low four bits shifted left by one, still in [0, 32).
func chunk(h uint64, depth uint) uint32 {
	return uint32((h << (trieBits * depth)) >> (64 - trieBits))
}

// node is one trie level. Position c holds a leaf when bit c of leafmap is
// set, a subtree when bit c of submap is set, and nothing otherwise; leaves
// and subs list the occupied positions of each kind in chunk order, so
// len(leaves) == popcount(leafmap) and len(subs) == popcount(submap).
// Keeping the two kinds in separate arrays makes each entry one pointer, the
// bytes a put copies per level, and lets a put that descends copy only subs
// and one that lands copy only leaves. A node below the root holds at least
// two keys: a subtree that shrinks to one leaf is pulled up into its parent.
type node[K comparable, V any] struct {
	leafmap, submap uint32
	leaves          []*leaf[K, V]
	subs            []*node[K, V]
}

// leaf is one binding. next chains further keys with the same full hash.
type leaf[K comparable, V any] struct {
	hash uint64
	k    K
	v    V
	next *leaf[K, V]
}

// index returns the array index of bit among the set bits of bitmap.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// get returns k's binding in the trie rooted at n.
func (n *node[K, V]) get(h uint64, k K) (V, bool) {
	for depth := uint(0); ; depth++ {
		bit := uint32(1) << chunk(h, depth)
		if n.submap&bit != 0 {
			n = n.subs[index(n.submap, bit)]
			continue
		}
		if n.leafmap&bit != 0 {
			if l := n.leaves[index(n.leafmap, bit)]; l.hash == h {
				for ; l != nil; l = l.next {
					if l.k == k {
						return l.v, true
					}
				}
			}
		}
		var zero V
		return zero, false
	}
}

// put returns a copy of n with k bound to v, plus the previous binding.
func (n *node[K, V]) put(h uint64, depth uint, k K, v V) (node[K, V], V, bool) {
	bit := uint32(1) << chunk(h, depth)
	c := *n
	var prev V
	existed := false
	switch {
	case n.submap&bit != 0:
		i := index(n.submap, bit)
		sub := new(node[K, V])
		*sub, prev, existed = n.subs[i].put(h, depth+1, k, v)
		c.subs = replaced(n.subs, i, sub)
	case n.leafmap&bit != 0:
		j := index(n.leafmap, bit)
		l := n.leaves[j]
		if l.hash == h {
			l, prev, existed = bucketPut(l, h, k, v)
			c.leaves = replaced(n.leaves, j, l)
			break
		}
		c.leafmap &^= bit
		c.submap |= bit
		c.leaves = removed(n.leaves, j)
		c.subs = inserted(n.subs, index(c.submap, bit), split(l, &leaf[K, V]{hash: h, k: k, v: v}, depth+1))
	default:
		c.leafmap |= bit
		c.leaves = inserted(n.leaves, index(c.leafmap, bit), &leaf[K, V]{hash: h, k: k, v: v})
	}
	return c, prev, existed
}

// delete returns a copy of n without k, plus the removed binding. When k
// is absent it returns n itself and copies nothing.
func (n *node[K, V]) delete(h uint64, depth uint, k K) (node[K, V], V, bool) {
	bit := uint32(1) << chunk(h, depth)
	c := *n
	var prev V
	existed := false
	switch {
	case n.submap&bit != 0:
		i := index(n.submap, bit)
		var sub node[K, V]
		if sub, prev, existed = n.subs[i].delete(h, depth+1, k); !existed {
			break
		}
		if sub.submap == 0 && len(sub.leaves) == 1 {
			c.submap &^= bit
			c.leafmap |= bit
			c.subs = removed(n.subs, i)
			c.leaves = inserted(n.leaves, index(c.leafmap, bit), sub.leaves[0])
			break
		}
		ns := sub
		c.subs = replaced(n.subs, i, &ns)
	case n.leafmap&bit != 0:
		j := index(n.leafmap, bit)
		l := n.leaves[j]
		if l.hash != h {
			break
		}
		l, prev, existed = bucketDelete(l, k)
		switch {
		case !existed:
		case l != nil:
			c.leaves = replaced(n.leaves, j, l)
		default:
			c.leafmap &^= bit
			c.leaves = removed(n.leaves, j)
		}
	}
	return c, prev, existed
}

// split returns the subtree at depth holding leaves a and b, whose hashes
// differ, so their chunks part at some level <= 12.
func split[K comparable, V any](a, b *leaf[K, V], depth uint) *node[K, V] {
	ca, cb := chunk(a.hash, depth), chunk(b.hash, depth)
	if ca == cb {
		return &node[K, V]{submap: 1 << ca, subs: []*node[K, V]{split(a, b, depth+1)}}
	}
	if ca > cb {
		a, b = b, a
	}
	return &node[K, V]{leafmap: 1<<ca | 1<<cb, leaves: []*leaf[K, V]{a, b}}
}

// inserted returns a copy of s with x inserted at i.
func inserted[T any](s []T, i int, x T) []T {
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = x
	copy(c[i+1:], s[i:])
	return c
}

// removed returns a copy of s without element i.
func removed[T any](s []T, i int) []T {
	if len(s) == 1 {
		return nil
	}
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}

// replaced returns a copy of s whose element i is x.
func replaced[T any](s []T, i int, x T) []T {
	c := make([]T, len(s))
	copy(c, s)
	c[i] = x
	return c
}

// bucketPut returns the bucket l (all of hash h) with k bound to v.
func bucketPut[K comparable, V any](l *leaf[K, V], h uint64, k K, v V) (*leaf[K, V], V, bool) {
	if l == nil {
		var zero V
		return &leaf[K, V]{hash: h, k: k, v: v}, zero, false
	}
	if l.k == k {
		return &leaf[K, V]{hash: h, k: k, v: v, next: l.next}, l.v, true
	}
	rest, prev, existed := bucketPut(l.next, h, k, v)
	return &leaf[K, V]{hash: h, k: l.k, v: l.v, next: rest}, prev, existed
}

// bucketDelete returns the bucket l without k; nil when it empties.
func bucketDelete[K comparable, V any](l *leaf[K, V], k K) (*leaf[K, V], V, bool) {
	if l == nil {
		var zero V
		return nil, zero, false
	}
	if l.k == k {
		return l.next, l.v, true
	}
	rest, prev, existed := bucketDelete(l.next, k)
	if !existed {
		return l, prev, false
	}
	return &leaf[K, V]{hash: l.hash, k: l.k, v: l.v, next: rest}, prev, true
}

// each calls f for every binding under n, in unspecified order, and
// reports whether f never returned false.
func (n *node[K, V]) each(f func(k K, v V) bool) bool {
	for _, l := range n.leaves {
		for ; l != nil; l = l.next {
			if !f(l.k, l.v) {
				return false
			}
		}
	}
	for _, sub := range n.subs {
		if !sub.each(f) {
			return false
		}
	}
	return true
}

// size counts the bindings under n.
func (n *node[K, V]) size() int {
	total := 0
	for _, l := range n.leaves {
		for ; l != nil; l = l.next {
			total++
		}
	}
	for _, sub := range n.subs {
		total += sub.size()
	}
	return total
}
