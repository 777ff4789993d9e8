// Package simmap is a wait-free hash map built from MULTIPLE instances of
// the Sim universal construction — the direction the paper sketches for
// data structures with internal parallelism (§1: "This limitation can
// possibly be overcome by using multiple instances of Sim (as done in our
// queue implementation)"). SimQueue uses two instances (one per end); simmap
// generalizes to S stripes, each an independent P-Sim simulating one
// stripe's persistent hash trie (trie.go). Operations on different stripes
// proceed in parallel; operations within a stripe combine. A write copies
// only the trie nodes on its key's path — one per level, about three at a
// thousand keys per stripe — and shares the rest with the previous state,
// the paper's remedy for large states (L-Sim, §6) applied to the map.
//
// Gets do not announce at all: a stripe's state is an immutable trie behind
// one atomic pointer, so reading that pointer is the linearization point —
// the structural analogue of the paper's observation that reads of the
// simulated state need no helping. Since core.PSim recycles its state
// records, the read costs a handful of atomic operations (claim an
// anonymous hazard slot, validate, release — see internal/core/recycle.go)
// rather than a bare load, but the trie NODES are immutable and never
// recycled, so a fetched root stays valid for as long as the caller holds
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

type mapScratch[K comparable, V any] struct {
	buckets [][]mapOp[K, V] // ops grouped by stripe, one bucket per stripe
	pos     [][]int         // pos[s][j] = caller index of buckets[s][j]
	res     []mapRes[V]     // ApplyBatch result scratch
	prevs   []V             // returned previous-value slice
	oks     []bool          // returned existed/found slice
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
	apply := func(root *node[K, V], _ int, op mapOp[K, V]) (r mapRes[V]) {
		if op.del {
			*root, r.prev, r.existed = root.delete(op.h, 0, op.k)
		} else {
			*root, r.prev, r.existed = root.put(op.h, 0, op.k, op.v)
		}
		return r
	}
	for i := range m.stripes {
		m.stripes[i] = core.NewPSim[node[K, V], mapOp[K, V], mapRes[V]](n, node[K, V]{}, apply)
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
// stripe state is immutable behind one atomic pointer, and the
// hazard-protected load of that pointer is the linearization point. It is
// lock-free under record recycling — a Get retries only when a concurrent
// Put/Delete on the same stripe publishes, never waiting on any thread
// (see the package comment).
func (m *Map[K, V]) Get(k K) (V, bool) {
	h := m.hash(k)
	root := m.stripes[m.stripeIdx(h)].Read()
	return root.get(h, k)
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
// snapshot is fetched ONCE and answers all of that stripe's keys — keys
// sharing a stripe are read at a single linearization point; different
// stripes are read at different instants (same contract as MSet). The
// returned slices are process-id-owned scratch, valid until id's next
// multi-key call.
func (m *Map[K, V]) MGet(id int, keys []K) (vals []V, ok []bool) {
	sc := m.grouped(id, keys, nil, false)
	for s, ops := range sc.buckets {
		if len(ops) == 0 {
			continue
		}
		root := m.stripes[s].Read()
		for j, op := range ops {
			i := sc.pos[s][j]
			sc.prevs[i], sc.oks[i] = root.get(op.h, op.k)
		}
	}
	return sc.prevs, sc.oks
}

// Len counts all entries. Each stripe is read atomically but stripes are
// read one after another, so the total is NOT a linearizable snapshot (like
// the size of any striped map under concurrent updates).
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
