package collect

import "repro/internal/pad"

// The announce array is P-Sim's practical substitute for the collect object
// (§4): n single-writer registers, one per process, each on its own cache
// line. Helpers read the slots of the processes whose Act bits differ from
// the applied vector, which raises Sim's step complexity from O(1) to O(k),
// k the interval contention, but shrinks the Fetch&Add object to one bit per
// process. Its slots are BATCH slots: each process
// announces a *vector* of operations instead of a single one, so one
// combining round can apply a whole pipeline's worth of work per announced
// process (degree of combining × batch amplification). The slot still holds
// one atomically-published pointer — helpers discover the vector exactly the
// way they discovered the single argument — so the announce/toggle protocol
// of §4 is unchanged; only the payload grew.
//
// Publishing a fresh heap box per announcement would put one allocation on
// the hot path (the last one the fig2 sweep showed at n ≥ 2). Instead each
// owner rotates through a small pool of boxes and rewrites the oldest one no
// helper is reading, under the same hazard-slot discipline as the state
// records (internal/core/recycle.go): a helper protects the box pointer it
// loaded with one store and one validating re-load of the slot, and an owner
// reuses a box only after a scan of the helper slots finds nobody holding
// it.
//
// Validation failure is not retried: the slot changed, so the announcing
// process k re-announced, so k's previously pending operation COMPLETED —
// which takes a successful state publish that happened strictly after the
// helper's (hazard-validated) load of the state record. The helper's own
// publish CAS is therefore doomed, and the round is abandoned exactly like a
// failed CAS. The same staleness argument makes the one ABA interleaving
// benign: a box can only reappear in its slot fully rewritten and
// re-published (contents ordered by the slot's release/acquire pair), and
// protecting it then just reads the newer announcement of a round that
// cannot publish.

// Batch is one announced operation vector. The backing array is owned by the
// announce pool and rewritten on reuse; read it only between a successful
// Protect and the corresponding Clear/re-Protect.
type Batch[T any] struct {
	vec []T
}

// Vec returns the announced operation vector.
func (b *Batch[T]) Vec() []T { return b.vec }

// boxesPerOwner is each owner's box-pool size: the published box, the box a
// slow helper may still hold, and slack so a second slow helper forces a
// rotation, not an allocation.
const boxesPerOwner = 4

// boxOwner is one process's private box pool (single-writer; padded so
// owners' rotation cursors do not share lines).
type boxOwner[T any] struct {
	boxes [boxesPerOwner]*Batch[T]
	next  int
	_     pad.CacheLinePad
}

// BatchAnnounce is an announce array whose slots carry operation vectors.
// Slot i is written only by process i; helper (reader) slot r is written
// only by process r.
type BatchAnnounce[T any] struct {
	slots  []pad.Pointer[Batch[T]]
	haz    []pad.Pointer[Batch[T]] // helper hazard slots, one per process
	owners []boxOwner[T]           // per-process box pools (each padded)
}

// NewBatchAnnounce returns a batch announce array for n processes.
func NewBatchAnnounce[T any](n int) *BatchAnnounce[T] {
	return &BatchAnnounce[T]{
		slots:  make([]pad.Pointer[Batch[T]], n),
		haz:    make([]pad.Pointer[Batch[T]], n),
		owners: make([]boxOwner[T], n),
	}
}

func (a *BatchAnnounce[T]) N() int { return len(a.slots) }

// hazarded reports whether any helper slot protects b.
func (a *BatchAnnounce[T]) hazarded(b *Batch[T]) bool {
	for i := range a.haz {
		if a.haz[i].P.Load() == b {
			return true
		}
	}
	return false
}

// take returns a box process i may rewrite: the next pool box no helper
// protects, or a fresh box (replacing the protected one in the pool — the
// protected box is dropped to the garbage collector once its readers move
// on) when every candidate is held. Never waits.
func (a *BatchAnnounce[T]) take(i int) *Batch[T] {
	o := &a.owners[i]
	cur := a.slots[i].P.Load()
	for probe := 0; probe < boxesPerOwner; probe++ {
		o.next = (o.next + 1) % boxesPerOwner
		b := o.boxes[o.next]
		if b == nil {
			b = &Batch[T]{}
			o.boxes[o.next] = b
			return b
		}
		if b != cur && !a.hazarded(b) {
			return b
		}
	}
	b := &Batch[T]{}
	o.boxes[o.next] = b
	return b
}

// Publish announces the operation vector vals for process i. vals is COPIED
// into pool-owned storage (helpers may read the box after Publish's caller
// has moved on to reuse vals), so steady-state publishes allocate nothing
// once the box's backing array has grown to the working batch size.
func (a *BatchAnnounce[T]) Publish(i int, vals []T) {
	b := a.take(i)
	b.vec = append(b.vec[:0], vals...)
	a.slots[i].P.Store(b)
}

// Protect loads process k's announced box and protects it in helper slot
// `reader`: store the pointer, re-load the slot, accept only if unchanged.
// ok=false means k re-announced meanwhile — the caller's combining round is
// doomed (see the file comment) and must be abandoned like a failed CAS.
// The protection holds until the slot is overwritten by the helper's next
// Protect or cleared with Clear.
func (a *BatchAnnounce[T]) Protect(reader, k int) (b *Batch[T], ok bool) {
	s := &a.haz[reader].P
	p := a.slots[k].P.Load()
	s.Store(p)
	if a.slots[k].P.Load() != p {
		return nil, false
	}
	return p, true
}

// Clear releases helper slot `reader` so a parked helper does not pin the
// last box it read (pinning forces that owner to allocate a replacement).
func (a *BatchAnnounce[T]) Clear(reader int) {
	a.haz[reader].P.Store(nil)
}
