// Package simmap is a wait-free hash map built from MULTIPLE instances of
// the Sim universal construction — the direction the paper sketches for
// data structures with internal parallelism (§1: "This limitation can
// possibly be overcome by using multiple instances of Sim (as done in our
// queue implementation)"). SimQueue uses two instances (one per end); simmap
// generalizes to S stripes, each an independent P-Sim simulating one
// stripe's hash trie (trie.go). Operations on different stripes proceed in
// parallel; operations within a stripe combine. A combining round edits the
// trie's root in place inside its recycled state record and copies each
// node below it on its operations' paths once — one or two at a thousand
// keys per stripe — sharing the rest with the previous state, the paper's
// remedy for large states (L-Sim, §6) applied to the map.
//
// Gets do not announce at all: a stripe's state is one atomic pointer to
// its current record, so reading that pointer is the linearization point —
// the structural analogue of the paper's observation that reads of the
// simulated state need no helping. Since core.PSim recycles its state
// records, and a record's root node keeps its entry arrays across reissue
// (trie.go), a Get reads the root's entry for its key under a claimable
// hazard slot (claim, validate, release — see internal/core/recycle.go) and
// then walks the nodes below it, which are immutable once published and
// never recycled. So a fetched root is valid only while it is protected,
// but anything reached from it stays valid for as long as the caller holds
// it. Under recycling a Get is lock-free rather than wait-free: the hazard
// validation retries only when a concurrent mutation publishes, so it never
// waits on a lock holder, but its step count is not bounded.
package simmap

import (
	"hash/maphash"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// mapOp is the announced mutation descriptor. h is k's hash, computed once
// per operation: its low bits pick the stripe and the trie walks it from
// the top.
type mapOp[K comparable, V any] struct {
	del bool
	h   uint64
	k   K
	v   V
}

// mapRes carries a mutation's response: the previous value, if any.
type mapRes[V any] struct {
	prev    V
	existed bool
}

// Map is a wait-free striped hash map for n processes. Each process id in
// [0, n) must be driven by one goroutine at a time.
type Map[K comparable, V any] struct {
	stripes []*core.PSim[node[K, V], mapOp[K, V], mapRes[V]]
	seed    maphash.Seed
	// per-process scratch for the multi-key operations: per-stripe op
	// buckets, position maps back to caller order, and the result slices
	// those operations return. Reused across calls, so the steady-state
	// batched path allocates nothing.
	scratch []mapScratch[K, V]
}

// rootSlot is what a stripe root holds at one key's position: a subtree or
// a leaf bucket (or neither), both immutable once published.
type rootSlot[K comparable, V any] struct {
	sub *node[K, V]
	l   *leaf[K, V]
}

type mapScratch[K comparable, V any] struct {
	buckets [][]mapOp[K, V]  // ops grouped by stripe, one bucket per stripe
	pos     [][]int          // pos[s][j] = caller index of buckets[s][j]
	res     []mapRes[V]      // ApplyBatch result scratch
	slots   []rootSlot[K, V] // MGet: each key's root entry, read under protection
	prevs   []V              // returned previous-value slice
	oks     []bool           // returned existed/found slice
	_       pad.CacheLinePad
}

// grouped splits keys (with optional parallel vals; del selects deletions)
// into per-stripe buckets and resizes the output slices to len(keys).
func (m *Map[K, V]) grouped(id int, keys []K, vals []V, del bool) *mapScratch[K, V] {
	sc := &m.scratch[id]
	if sc.buckets == nil {
		sc.buckets = make([][]mapOp[K, V], len(m.stripes))
		sc.pos = make([][]int, len(m.stripes))
	}
	for s := range sc.buckets {
		sc.buckets[s] = sc.buckets[s][:0]
		sc.pos[s] = sc.pos[s][:0]
	}
	for i, k := range keys {
		h := m.hash(k)
		s := m.stripeIdx(h)
		op := mapOp[K, V]{del: del, h: h, k: k}
		if vals != nil {
			op.v = vals[i]
		}
		sc.buckets[s] = append(sc.buckets[s], op)
		sc.pos[s] = append(sc.pos[s], i)
	}
	sc.prevs = sc.prevs[:0]
	sc.oks = sc.oks[:0]
	var zero V
	for range keys {
		sc.prevs = append(sc.prevs, zero)
		sc.oks = append(sc.oks, false)
	}
	return sc
}

// mutateBatch runs one ApplyBatch per non-empty bucket and scatters the
// results back to caller order.
func (m *Map[K, V]) mutateBatch(id int, sc *mapScratch[K, V]) ([]V, []bool) {
	for s, ops := range sc.buckets {
		if len(ops) == 0 {
			continue
		}
		sc.res = m.stripes[s].ApplyBatch(id, ops, sc.res)
		for j, r := range sc.res {
			i := sc.pos[s][j]
			sc.prevs[i] = r.prev
			sc.oks[i] = r.existed
		}
	}
	return sc.prevs, sc.oks
}

// New returns a map with the given number of stripes (rounded up to 1).
// More stripes mean more inter-key parallelism and smaller tries; a stripe
// count near the expected concurrency level is a good default.
func New[K comparable, V any](n, stripes int) *Map[K, V] {
	if stripes < 1 {
		stripes = 1
	}
	m := &Map[K, V]{
		stripes: make([]*core.PSim[node[K, V], mapOp[K, V], mapRes[V]], stripes),
		seed:    maphash.MakeSeed(),
	}
	apply := func(root *node[K, V], _ int, op mapOp[K, V]) mapRes[V] { return root.apply(op) }
	for i := range m.stripes {
		m.stripes[i] = core.NewPSim(n, node[K, V]{}, apply, core.WithCloneInto(cloneRoot[K, V]))
	}
	m.scratch = make([]mapScratch[K, V], n)
	return m
}

func (m *Map[K, V]) hash(k K) uint64 { return maphash.Comparable(m.seed, k) }

func (m *Map[K, V]) stripeIdx(h uint64) int { return int(h % uint64(len(m.stripes))) }

// Put binds k to v on behalf of process id and returns the previous binding.
func (m *Map[K, V]) Put(id int, k K, v V) (prev V, existed bool) {
	h := m.hash(k)
	r := m.stripes[m.stripeIdx(h)].Apply(id, mapOp[K, V]{h: h, k: k, v: v})
	return r.prev, r.existed
}

// Delete removes k on behalf of process id and returns the removed binding.
func (m *Map[K, V]) Delete(id int, k K) (prev V, existed bool) {
	h := m.hash(k)
	r := m.stripes[m.stripeIdx(h)].Apply(id, mapOp[K, V]{del: true, h: h, k: k})
	return r.prev, r.existed
}

// Get returns k's binding. It is linearizable WITHOUT announcing: the
// hazard-protected load of the stripe's state pointer is the linearization
// point. The root's entry for k is read under that protection, the rest of
// the walk after its release. It is lock-free under record recycling — a
// Get retries only when a concurrent Put/Delete on the same stripe
// publishes, never waiting on any thread (see the package comment).
func (m *Map[K, V]) Get(k K) (V, bool) {
	h := m.hash(k)
	var e rootSlot[K, V]
	m.stripes[m.stripeIdx(h)].ReadFunc(func(root *node[K, V]) { e.sub, e.l = root.slot(h, 0) })
	return lookup(e.sub, e.l, h, k)
}

// MSet binds keys[i] to vals[i] for every i on behalf of process id,
// returning the previous bindings aligned with keys. Keys are grouped by
// stripe and each stripe's group is applied as ONE batched operation
// (atomic within the stripe, in key order); groups on different stripes
// commit at different instants, so the whole MSet is per-key linearizable
// but not a single atomic multi-key write — the usual striped-map contract.
// If keys repeat, same-stripe repeats apply in key order. The returned
// slices are process-id-owned scratch, valid until id's next multi-key call.
func (m *Map[K, V]) MSet(id int, keys []K, vals []V) (prevs []V, existed []bool) {
	return m.mutateBatch(id, m.grouped(id, keys, vals, false))
}

// MDelete removes every key on behalf of process id, returning the removed
// bindings aligned with keys. Same grouping, atomicity, and scratch
// contract as MSet.
func (m *Map[K, V]) MDelete(id int, keys []K) (prevs []V, existed []bool) {
	return m.mutateBatch(id, m.grouped(id, keys, nil, true))
}

// MGet returns the bindings of all keys, aligned with keys. Each stripe's
// root is protected ONCE and its entries for all of that stripe's keys are
// read under that protection — keys sharing a stripe are read at a single
// linearization point; different stripes are read at different instants
// (same contract as MSet). The returned slices are process-id-owned
// scratch, valid until id's next multi-key call.
func (m *Map[K, V]) MGet(id int, keys []K) (vals []V, ok []bool) {
	sc := m.grouped(id, keys, nil, false)
	for s, ops := range sc.buckets {
		if len(ops) == 0 {
			continue
		}
		sc.slots = sc.slots[:0]
		m.stripes[s].ReadFunc(func(root *node[K, V]) {
			for _, op := range ops {
				sub, l := root.slot(op.h, 0)
				sc.slots = append(sc.slots, rootSlot[K, V]{sub, l})
			}
		})
		for j, op := range ops {
			i := sc.pos[s][j]
			e := sc.slots[j]
			sc.prevs[i], sc.oks[i] = lookup(e.sub, e.l, op.h, op.k)
		}
	}
	return sc.prevs, sc.oks
}

// Len counts all entries. Each stripe is read atomically (Read copies its
// root) but stripes are read one after another, so the total is NOT a
// linearizable snapshot (like the size of any striped map under concurrent
// updates).
func (m *Map[K, V]) Len() int {
	total := 0
	for _, s := range m.stripes {
		root := s.Read()
		total += root.size()
	}
	return total
}

// Range calls f for every entry of a point-in-time per-stripe snapshot,
// stopping early if f returns false. The order is unspecified. Same
// consistency caveat as Len.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for _, s := range m.stripes {
		root := s.Read()
		if !root.each(f) {
			return
		}
	}
}

// Stripes returns the stripe count.
func (m *Map[K, V]) Stripes() int { return len(m.stripes) }

// Attach connects every stripe's instrument (see core.StatsPlane.Attach):
// the stripes' exact counters attach in reg under the same prefix (the
// registry sums them, matching Stats), and all stripes share rec and tr.
// Sharing is safe: process id i is driven by one goroutine at a time, so
// slot i and ring i keep a single writer whichever stripe an operation
// lands on, and one per-pid event track is exactly the thread's-eye view a
// flight recorder is for. Any argument may be nil. Call once, before any
// mutation.
func (m *Map[K, V]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	for _, s := range m.stripes {
		s.Attach(reg, prefix, rec, tr)
	}
}

// Stats aggregates combining statistics across all stripes.
func (m *Map[K, V]) Stats() core.Stats {
	var total core.Stats
	for _, s := range m.stripes {
		total = total.Add(s.Stats())
	}
	return total
}
