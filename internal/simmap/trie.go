package simmap

// A stripe's state: a 32-way bitmap-indexed hash trie (a HAMT). A write
// copies the nodes on its key's path and shares everything else, so it
// copies O(log32 n) nodes instead of a list prefix.
//
// Ownership. The root lives in the stripe's P-Sim state record: its two
// entry arrays are buffers the record owns, refilled from the loaded state
// by cloneRoot (the core.WithCloneInto hook) at the start of every round
// attempt and then edited in place; they are rewritten whenever the record
// is reissued, so readers take what they need from the root under hazard
// protection (Map.Get). Nodes below the root are immutable once published.
// Each carries the token of the attempt that built it, and each attempt's
// token is one step above its loaded root's, which is at least that of
// every node the loaded trie holds. A node stamped with the current token
// was built earlier in the same attempt and is edited in place; any other
// node is copied and stamped once, so a round copies each node on its
// operations' paths once, however many of them share it. A failed
// attempt's nodes were never visible to anyone. The two low bits of a
// token say which of the node's arrays it allocated itself: a copy shares
// the other array with the node it copied until it writes that one too.
//
// The trie consumes a key's 64-bit hash top bits first, five bits per
// level: levels 0..11 take 60 bits and level 12 the last four. The stripe
// index is taken from the hash's low bits, so keys of one stripe still
// spread over the root's 32 positions. Two keys whose full 64-bit hashes
// are equal share one leaf position as a short bucket chained through
// leaf.next.

import (
	"math/bits"
	"slices"
)

const trieBits = 5

// The low bits of node.tok: which of the node's arrays it owns.
const (
	ownLeaves uint64 = 1 << iota
	ownSubs
	ownBoth = ownLeaves | ownSubs
	tokStep = ownBoth + 1 // tokens advance above the ownership bits
)

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
// bytes a copy takes per level, and lets a put that descends copy only subs
// and one that lands copy only leaves. A node below the root holds at least
// two keys: a subtree that shrinks to one leaf is pulled up into its parent.
// tok is the building attempt's token plus the ownership bits (see the file
// comment); at the root it advances once per attempt.
type node[K comparable, V any] struct {
	leafmap, submap uint32
	tok             uint64
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

// cloneRoot is the stripes' core.WithCloneInto hook: it refills dst, a
// reissued record's root or a zero node, from src and gives it the next
// attempt's token.
func cloneRoot[K comparable, V any](dst, src *node[K, V]) {
	dst.leafmap, dst.submap = src.leafmap, src.submap
	dst.tok = src.tok&^ownBoth + tokStep | ownBoth
	dst.leaves = refill(dst.leaves, src.leaves)
	dst.subs = refill(dst.subs, src.subs)
}

// refill copies src into dst's 32-entry buffer (allocated on first use) and
// clears the entries dst held beyond src's length, so a recycled record
// keeps nothing it no longer binds alive.
func refill[T any](dst, src []T) []T {
	if dst == nil {
		dst = make([]T, 0, 1<<trieBits)
	}
	old := len(dst)
	dst = append(dst[:0], src...)
	if old > len(dst) {
		clear(dst[len(dst):old])
	}
	return dst
}

// apply runs a mutation on root, the state record's root inside a round
// attempt. A delete of an absent key writes nothing.
func (root *node[K, V]) apply(op mapOp[K, V]) (r mapRes[V]) {
	tok := root.tok &^ ownBoth
	if !op.del {
		r.prev, r.existed = root.put(tok, op.h, 0, op.k, op.v)
	} else if r.prev, r.existed = root.get(op.h, op.k); r.existed {
		root.delete(tok, op.h, 0, op.k)
	}
	return r
}

// slot returns what position chunk(h, depth) of n holds: a subtree, a leaf
// bucket, or neither.
func (n *node[K, V]) slot(h uint64, depth uint) (*node[K, V], *leaf[K, V]) {
	bit := uint32(1) << chunk(h, depth)
	if n.submap&bit != 0 {
		return n.subs[index(n.submap, bit)], nil
	}
	if n.leafmap&bit != 0 {
		return nil, n.leaves[index(n.leafmap, bit)]
	}
	return nil, nil
}

// get returns k's binding in the trie rooted at n.
func (n *node[K, V]) get(h uint64, k K) (V, bool) {
	sub, l := n.slot(h, 0)
	return lookup(sub, l, h, k)
}

// lookup finishes a get below the root from the root's slot for h: the
// subtree sub at depth 1, or the bucket l.
func lookup[K comparable, V any](sub *node[K, V], l *leaf[K, V], h uint64, k K) (V, bool) {
	for depth := uint(1); sub != nil; depth++ {
		sub, l = sub.slot(h, depth)
	}
	if l != nil && l.hash == h {
		for ; l != nil; l = l.next {
			if l.k == k {
				return l.v, true
			}
		}
	}
	var zero V
	return zero, false
}

// own returns n when attempt tok built it, else a copy stamped tok that
// shares n's arrays until it writes them.
func (n *node[K, V]) own(tok uint64) *node[K, V] {
	if n.tok&^ownBoth == tok {
		return n
	}
	c := *n
	c.tok = tok
	return &c
}

// writable reports whether n owns its array marked own, and marks it owned:
// the caller writes it in place if so, and replaces it with a copy if not.
func (n *node[K, V]) writable(own uint64) bool {
	w := n.tok&own != 0
	n.tok |= own
	return w
}

// put binds k to v under n, a node attempt tok owns, and returns the
// previous binding. It edits n in place and owns each node it descends into.
func (n *node[K, V]) put(tok, h uint64, depth uint, k K, v V) (prev V, existed bool) {
	bit := uint32(1) << chunk(h, depth)
	switch {
	case n.submap&bit != 0:
		i := index(n.submap, bit)
		sub := n.subs[i].own(tok)
		if sub != n.subs[i] {
			n.subs = replaced(n.subs, n.writable(ownSubs), i, sub)
		}
		return sub.put(tok, h, depth+1, k, v)
	case n.leafmap&bit != 0:
		j := index(n.leafmap, bit)
		l := n.leaves[j]
		if l.hash == h {
			l, prev, existed = bucketPut(l, h, k, v)
			n.leaves = replaced(n.leaves, n.writable(ownLeaves), j, l)
			return prev, existed
		}
		n.leafmap &^= bit
		n.submap |= bit
		n.leaves = removed(n.leaves, n.writable(ownLeaves), j)
		n.subs = inserted(n.subs, n.writable(ownSubs), index(n.submap, bit), split(tok, l, &leaf[K, V]{hash: h, k: k, v: v}, depth+1))
	default:
		n.leafmap |= bit
		n.leaves = inserted(n.leaves, n.writable(ownLeaves), index(n.leafmap, bit), &leaf[K, V]{hash: h, k: k, v: v})
	}
	return prev, existed
}

// delete removes k, which must be bound under n, a node attempt tok owns,
// and returns its value. A subtree left holding one leaf is pulled up into
// n.
func (n *node[K, V]) delete(tok, h uint64, depth uint, k K) V {
	bit := uint32(1) << chunk(h, depth)
	if n.leafmap&bit != 0 {
		j := index(n.leafmap, bit)
		l, prev := bucketDelete(n.leaves[j], k)
		if l != nil {
			n.leaves = replaced(n.leaves, n.writable(ownLeaves), j, l)
		} else {
			n.leafmap &^= bit
			n.leaves = removed(n.leaves, n.writable(ownLeaves), j)
		}
		return prev
	}
	i := index(n.submap, bit)
	sub := n.subs[i].own(tok)
	prev := sub.delete(tok, h, depth+1, k)
	switch {
	case sub.submap == 0 && len(sub.leaves) == 1:
		n.submap &^= bit
		n.leafmap |= bit
		n.subs = removed(n.subs, n.writable(ownSubs), i)
		n.leaves = inserted(n.leaves, n.writable(ownLeaves), index(n.leafmap, bit), sub.leaves[0])
	case sub != n.subs[i]:
		n.subs = replaced(n.subs, n.writable(ownSubs), i, sub)
	}
	return prev
}

// split returns the subtree at depth, built by attempt tok, holding leaves
// a and b, whose hashes differ, so their chunks part at some level <= 12.
func split[K comparable, V any](tok uint64, a, b *leaf[K, V], depth uint) *node[K, V] {
	ca, cb := chunk(a.hash, depth), chunk(b.hash, depth)
	if ca == cb {
		return &node[K, V]{submap: 1 << ca, tok: tok | ownBoth, subs: []*node[K, V]{split(tok, a, b, depth+1)}}
	}
	if ca > cb {
		a, b = b, a
	}
	return &node[K, V]{leafmap: 1<<ca | 1<<cb, tok: tok | ownBoth, leaves: []*leaf[K, V]{a, b}}
}

// inserted returns s with x inserted at i: in place when s is owned, else
// in a copy.
func inserted[T any](s []T, owned bool, i int, x T) []T {
	if owned {
		return slices.Insert(s, i, x)
	}
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = x
	copy(c[i+1:], s[i:])
	return c
}

// removed returns s without element i: in place when s is owned, else in a
// copy.
func removed[T any](s []T, owned bool, i int) []T {
	if owned {
		return slices.Delete(s, i, i+1)
	}
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}

// replaced returns s with element i set to x: in place when s is owned,
// else in a copy.
func replaced[T any](s []T, owned bool, i int, x T) []T {
	if !owned {
		s = slices.Clone(s)
	}
	s[i] = x
	return s
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

// bucketDelete returns the bucket l without k, which it must hold, and k's
// value; the bucket is nil when it empties.
func bucketDelete[K comparable, V any](l *leaf[K, V], k K) (*leaf[K, V], V) {
	if l.k == k {
		return l.next, l.v
	}
	rest, prev := bucketDelete(l.next, k)
	return &leaf[K, V]{hash: l.hash, k: l.k, v: l.v, next: rest}, prev
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
