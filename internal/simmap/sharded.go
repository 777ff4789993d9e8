package simmap

import (
	"hash/maphash"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// Sharded partitions the key space across a power-of-two number of
// independent Maps — the next scaling level above stripes. A stripe shares
// its Act vector, announce array, and observability plane with its siblings
// inside one Map; a SHARD is a whole Map of its own, so shards share
// nothing: each has its own stripes, its own hash seed, and (when
// attached) its own counters and recorder. Multi-key
// operations group keys per shard and hand each shard's group to the
// shard's batched entry points, so a cross-shard MGet/MSet costs one
// combining round per TOUCHED shard, not per key.
//
// Consistency contract: single-key operations are linearizable exactly as
// on Map. A multi-key operation is atomic per (shard, stripe) group and
// per-key linearizable overall, but has no single atomic point across
// shards — the standard partitioned-map contract, checkable per key with
// check.LinearizablePartitioned.
type Sharded[K comparable, V any] struct {
	shards []*Map[K, V]
	seed   maphash.Seed
	mask   uint64
	// per-process scratch for cross-shard fan-out of multi-key calls.
	scratch []shardScratch[K, V]
}

type shardScratch[K comparable, V any] struct {
	skeys [][]K   // keys grouped by shard
	svals [][]V   // values grouped by shard (MSet only)
	pos   [][]int // pos[s][j] = caller index of skeys[s][j]
	prevs []V
	oks   []bool
	_     pad.CacheLinePad
}

// NewSharded returns a map for n processes with `shards` independent Maps
// (rounded up to the next power of two, minimum 1) of stripesPerShard
// stripes each. The shard count is a pure parallelism knob: the key space
// is hash-partitioned, so any power of two works; a count near the number
// of concurrently mutating processes is a good default.
func NewSharded[K comparable, V any](n, shards, stripesPerShard int) *Sharded[K, V] {
	k := 1
	for k < shards {
		k <<= 1
	}
	s := &Sharded[K, V]{
		shards:  make([]*Map[K, V], k),
		seed:    maphash.MakeSeed(),
		mask:    uint64(k - 1),
		scratch: make([]shardScratch[K, V], n),
	}
	for i := range s.shards {
		s.shards[i] = New[K, V](n, stripesPerShard)
	}
	return s
}

func (s *Sharded[K, V]) shardIdx(k K) int {
	// An independent seed from every shard's internal stripe seed, so shard
	// and stripe partitions are uncorrelated.
	return int(maphash.Comparable(s.seed, k) & s.mask)
}

// Shard returns shard i — e.g. to attach a tracer or recorder to just that
// shard. Shards are full Maps; anything legal on a Map is legal here.
func (s *Sharded[K, V]) Shard(i int) *Map[K, V] { return s.shards[i] }

// Shards returns the shard count (a power of two).
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// Put binds k to v on behalf of process id and returns the previous binding.
func (s *Sharded[K, V]) Put(id int, k K, v V) (prev V, existed bool) {
	return s.shards[s.shardIdx(k)].Put(id, k, v)
}

// Delete removes k on behalf of process id and returns the removed binding.
func (s *Sharded[K, V]) Delete(id int, k K) (prev V, existed bool) {
	return s.shards[s.shardIdx(k)].Delete(id, k)
}

// Get returns k's binding (linearizable, no announcement — see Map.Get).
func (s *Sharded[K, V]) Get(k K) (V, bool) {
	return s.shards[s.shardIdx(k)].Get(k)
}

// group fans keys (and optional parallel vals) out into per-shard slices.
func (s *Sharded[K, V]) group(id int, keys []K, vals []V) *shardScratch[K, V] {
	sc := &s.scratch[id]
	if sc.skeys == nil {
		sc.skeys = make([][]K, len(s.shards))
		sc.svals = make([][]V, len(s.shards))
		sc.pos = make([][]int, len(s.shards))
	}
	for i := range sc.skeys {
		sc.skeys[i] = sc.skeys[i][:0]
		sc.svals[i] = sc.svals[i][:0]
		sc.pos[i] = sc.pos[i][:0]
	}
	for i, k := range keys {
		sh := s.shardIdx(k)
		sc.skeys[sh] = append(sc.skeys[sh], k)
		if vals != nil {
			sc.svals[sh] = append(sc.svals[sh], vals[i])
		}
		sc.pos[sh] = append(sc.pos[sh], i)
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

// scatter copies shard sh's group results (aligned with sc.skeys[sh]) back
// to caller order.
func (sc *shardScratch[K, V]) scatter(sh int, prevs []V, oks []bool) {
	for j, i := range sc.pos[sh] {
		sc.prevs[i] = prevs[j]
		sc.oks[i] = oks[j]
	}
}

// MSet binds keys[i] to vals[i] for every i on behalf of process id,
// returning previous bindings aligned with keys. Each shard's group is one
// batched call on that shard (see Map.MSet for the per-group atomicity
// contract); the returned slices are process-id-owned scratch, valid until
// id's next multi-key call on this Sharded.
func (s *Sharded[K, V]) MSet(id int, keys []K, vals []V) (prevs []V, existed []bool) {
	sc := s.group(id, keys, vals)
	for sh, ks := range sc.skeys {
		if len(ks) == 0 {
			continue
		}
		p, ok := s.shards[sh].MSet(id, ks, sc.svals[sh])
		sc.scatter(sh, p, ok)
	}
	return sc.prevs, sc.oks
}

// MDelete removes every key on behalf of process id, returning the removed
// bindings aligned with keys. Same contract as MSet.
func (s *Sharded[K, V]) MDelete(id int, keys []K) (prevs []V, existed []bool) {
	sc := s.group(id, keys, nil)
	for sh, ks := range sc.skeys {
		if len(ks) == 0 {
			continue
		}
		p, ok := s.shards[sh].MDelete(id, ks)
		sc.scatter(sh, p, ok)
	}
	return sc.prevs, sc.oks
}

// MGet returns the bindings of all keys, aligned with keys. Keys on the
// same (shard, stripe) are read from one snapshot; different shards are
// read at different instants (see the type comment). The returned slices
// are process-id-owned scratch, valid until id's next multi-key call.
func (s *Sharded[K, V]) MGet(id int, keys []K) (vals []V, ok []bool) {
	sc := s.group(id, keys, nil)
	for sh, ks := range sc.skeys {
		if len(ks) == 0 {
			continue
		}
		v, o := s.shards[sh].MGet(id, ks)
		sc.scatter(sh, v, o)
	}
	return sc.prevs, sc.oks
}

// Len counts all entries (non-atomic across shards, like Map.Len across
// stripes).
func (s *Sharded[K, V]) Len() int {
	total := 0
	for _, m := range s.shards {
		total += m.Len()
	}
	return total
}

// Range calls f for every entry of per-stripe snapshots across all shards,
// stopping early if f returns false.
func (s *Sharded[K, V]) Range(f func(k K, v V) bool) {
	stop := false
	for _, m := range s.shards {
		if stop {
			return
		}
		m.Range(func(k K, v V) bool {
			if !f(k, v) {
				stop = true
				return false
			}
			return true
		})
	}
}

// Attach connects every shard's instrument. In reg (nil = unpublished) each
// shard publishes labeled series of one metric family —
// prefix_ops_total{shard="<i>"}, … — with its own SimRecorder (returned in
// shard order; nil without reg), so per-shard load imbalance is visible
// while `sum by (shard)` still aggregates the family. All shards share tr:
// multi-key calls touch shards one after another, so process id i stays a
// single writer, and one interleaved stream is the right shape for a flight
// recorder. Call once, before any mutation.
func (s *Sharded[K, V]) Attach(reg *obs.Registry, prefix string, tr *trace.Tracer) []*obs.SimRecorder {
	recs := make([]*obs.SimRecorder, len(s.shards))
	for i, m := range s.shards {
		p := obs.Labeled(prefix, "shard", strconv.Itoa(i))
		recs[i] = obs.NewSimRecorder(reg, p, m.stripes[0].N())
		m.Attach(reg, p, recs[i], tr)
	}
	return recs
}

// Stats aggregates combining statistics across all shards.
func (s *Sharded[K, V]) Stats() core.Stats {
	var total core.Stats
	for _, m := range s.shards {
		st := m.Stats()
		total.Ops += st.Ops
		total.CASSuccesses += st.CASSuccesses
		total.CASFailures += st.CASFailures
		total.Combined += st.Combined
		total.ServedByOther += st.ServedByOther
	}
	if total.CASSuccesses > 0 {
		total.AvgHelping = float64(total.Combined) / float64(total.CASSuccesses)
	}
	return total
}
