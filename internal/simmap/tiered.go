package simmap

// The large-value tier: a byte-value map that routes each binding to the
// engine its size deserves. Small values live INLINE in the P-Sim striped
// map — a put is one stripe round and the value rides an immutable trie
// leaf. Large values (>= threshold bytes) live in lsim ItemSV records: the
// map binds the key to an *lsim.Item, and overwriting the value is ONE
// L-Sim operation on that item (O(w)=O(1) write-back) instead of a stripe
// round that copies the key's trie path per write. Reads on either tier
// stay lock-free: the map read is hazard-protected, and Item.Current reads
// the item body under an anonymous hazard slot.
//
// Linearizability is per key (the same contract as Map/Sharded), with the
// map op or the L-Sim round as the linearization point:
//
//   - small put / delete / large install: the stripe round that swings the
//     binding;
//   - large overwrite: the L-Sim round that writes the item;
//   - get: the hazard-protected map read, plus Item.Current for large keys.
//
// One write can lose a tier-move race: writer A moves key k to the small
// tier (map round) while writer B, which found k's item just before, lands
// an L-Sim write on the now-orphaned item. B's value is then never
// observable. That history stays linearizable — order B's put immediately
// before A's, which is legal because their intervals overlap — but ONLY
// because Put does not report the previous VALUE (B's prev would have to be
// ordered around both). That is why Tiered.Put returns existence alone;
// TestTieredSoakHistory validates recorded mixed-tier histories against
// exactly this prev-less spec with the check/v2 engines.

import (
	"repro/internal/core"
	"repro/internal/lsim"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// DefaultLargeThreshold is the value size, in bytes, at which Tiered routes
// a binding to the L-Sim item tier (simkvd's -large-threshold overrides it).
const DefaultLargeThreshold = 1024

// blobVal is one binding: exactly one of inline (small tier) or item (large
// tier) is set.
type blobVal struct {
	inline []byte
	item   *lsim.Item[[]byte]
}

// blobArg is the argument of the large-tier overwrite operation.
type blobArg struct {
	it  *lsim.Item[[]byte]
	val []byte
}

// Tiered is a byte-value map with size-routed storage tiers. All write
// methods take the calling process id (0..n-1, one goroutine per id, shared
// by both engines); Get is id-free and safe for any goroutine.
type Tiered[K comparable] struct {
	m         *Map[K, blobVal]
	ls        *lsim.LSim[[]byte, blobArg, []byte]
	threshold int
	smallOps  *obs.Counter // writes served by the inline tier
	largeOps  *obs.Counter // writes served by the L-Sim item tier
	overwrite lsim.OpFunc[[]byte, blobArg, []byte]
}

// NewTiered returns a tiered map for n processes with the given stripe
// count for the small tier. threshold <= 0 selects DefaultLargeThreshold.
func NewTiered[K comparable](n, stripes, threshold int) *Tiered[K] {
	if threshold <= 0 {
		threshold = DefaultLargeThreshold
	}
	t := &Tiered[K]{
		m:         New[K, blobVal](n, stripes),
		ls:        lsim.New[[]byte, blobArg, []byte](n),
		threshold: threshold,
		smallOps:  obs.NewCounter(n),
		largeOps:  obs.NewCounter(n),
	}
	t.overwrite = func(m *lsim.Mem[[]byte, blobArg, []byte], a blobArg) []byte {
		old := m.Read(a.it)
		m.Write(a.it, a.val)
		return old
	}
	return t
}

// Threshold returns the large-tier routing threshold in bytes.
func (t *Tiered[K]) Threshold() int { return t.threshold }

// Put binds k to a copy of v and reports whether k was already bound. The
// copy makes the caller's buffer free to reuse (wire buffers); the stored
// copy is immutable from then on. Values of len >= Threshold() go to the
// large tier; an overwrite that stays in the large tier is a single L-Sim
// item operation and never touches the map structure.
func (t *Tiered[K]) Put(id int, k K, v []byte) (existed bool) {
	owned := append(make([]byte, 0, len(v)), v...)
	if len(owned) < t.threshold {
		t.smallOps.Inc(id)
		_, existed = t.m.Put(id, k, blobVal{inline: owned})
		return existed
	}
	t.largeOps.Inc(id)
	if cur, ok := t.m.Get(k); ok && cur.item != nil {
		t.ls.ApplyOp(id, t.overwrite, blobArg{it: cur.item, val: owned})
		return true
	}
	// Install: the item is born with the value, so the binding-publishing
	// map round is the only shared step.
	_, existed = t.m.Put(id, k, blobVal{item: t.ls.NewRootItem(owned)})
	return existed
}

// Delete removes k's binding and reports whether one existed.
func (t *Tiered[K]) Delete(id int, k K) (existed bool) {
	prev, ok := t.m.Delete(id, k)
	if ok && prev.item != nil {
		t.largeOps.Inc(id)
	} else {
		t.smallOps.Inc(id)
	}
	return ok
}

// Get returns the value bound to k. The returned slice is the store's
// immutable copy — callers must not modify it.
func (t *Tiered[K]) Get(k K) ([]byte, bool) {
	cur, ok := t.m.Get(k)
	if !ok {
		return nil, false
	}
	if cur.item != nil {
		return cur.item.Current(), true
	}
	return cur.inline, true
}

// Len returns the number of bindings (see Map.Len for the snapshot
// semantics).
func (t *Tiered[K]) Len() int { return t.m.Len() }

// Range calls f for every binding until f returns false. Values are read
// with the same point-read semantics as Get; the iteration order is
// unspecified and the set of keys is a per-stripe snapshot (see Map.Range).
func (t *Tiered[K]) Range(f func(k K, v []byte) bool) {
	t.m.Range(func(k K, bv blobVal) bool {
		if bv.item != nil {
			return f(k, bv.item.Current())
		}
		return f(k, bv.inline)
	})
}

// TieredStats is the per-engine view of a Tiered map's combining counters.
type TieredStats struct {
	Small        core.Stats // the P-Sim stripes (inline tier + binding changes)
	Large        core.Stats // the L-Sim instance (large-value overwrites)
	SmallOps     uint64     // writes routed to the inline tier
	LargeOps     uint64     // writes routed to the item tier
	ItemsWritten uint64     // committed item write-backs (L-Sim write-set total)
}

// Stats aggregates both engines' counters (snapshot semantics; see
// core.StatsPlane.Aggregate).
func (t *Tiered[K]) Stats() TieredStats {
	return TieredStats{
		Small:        t.m.Stats(),
		Large:        t.ls.Stats(),
		SmallOps:     t.smallOps.Total(),
		LargeOps:     t.largeOps.Total(),
		ItemsWritten: t.ls.ItemsWritten(),
	}
}

// Attach connects both engines' instruments: in reg under prefix, the small
// tier's stripes as <prefix>_* (sharing rec), the L-Sim engine's counters
// as <prefix>_lsim_* (no recorder), and the tier routing counters as
// <prefix>_tier_{small,large}_ops_total; both engines' events interleave in
// tr's per-pid rings. Any argument may be nil. Call once, before operations
// start.
func (t *Tiered[K]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	t.m.Attach(reg, prefix, rec, tr)
	t.ls.Attach(reg, prefix+"_lsim", nil, tr)
	reg.AttachCounter(prefix+"_tier_small_ops_total", t.smallOps)
	reg.AttachCounter(prefix+"_tier_large_ops_total", t.largeOps)
}
