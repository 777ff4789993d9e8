package alloc

import (
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// Shared is the plane's anonymous front: a bounded array of padded slots,
// each holding one free block, for callers with no stable thread id (e.g.
// core.PSimWords readers, which may run on any goroutine). It replaces sync.Pool
// for hot-path scratch with two differences that matter here: retention is
// strictly bounded (at most Slots blocks — blocks past that are dropped to
// the GC at Put time, never hoarded until the next GC cycle), and both Get
// and Put are single bounded scans with one CAS attempt per slot, so they
// are wait-free rather than best-effort-with-locks.
//
// A successful Get CAS(x, nil) transfers ownership of exactly the block the
// slot holds; an expected-value recurrence (x dropped back into the same
// slot between load and CAS) is harmless because the block's contents are
// only touched after the CAS succeeds, and the Put CAS that re-published it
// is the release fence for any writes the previous owner made.
type Shared[T any] struct {
	newFn func() *T
	slots []pad.Pointer[T]

	blocks  *obs.Counter // single-slot counters, AddAtomic (no stable writer id)
	fresh   *obs.Counter
	frees   *obs.Counter
	handoff *obs.Counter // slot exchanges (Get hits + Put parks)
	drops   *obs.Counter
}

// NewShared returns an anonymous front with the given slot count (min 2)
// and block constructor.
func NewShared[T any](slots int, newFn func() *T) *Shared[T] {
	if newFn == nil {
		panic("alloc: NewShared needs a constructor")
	}
	if slots < 2 {
		slots = 2
	}
	return &Shared[T]{
		newFn:   newFn,
		slots:   make([]pad.Pointer[T], slots),
		blocks:  obs.NewCounter(1),
		fresh:   obs.NewCounter(1),
		frees:   obs.NewCounter(1),
		handoff: obs.NewCounter(1),
		drops:   obs.NewCounter(1),
	}
}

// Get returns a parked block or, after one full unsuccessful sweep, a fresh
// one. Wait-free: one CAS attempt per occupied slot, no retries.
func (s *Shared[T]) Get() *T {
	for i := range s.slots {
		sp := &s.slots[i].P
		if x := sp.Load(); x != nil && sp.CompareAndSwap(x, nil) {
			s.blocks.AddAtomic(0, 1)
			s.handoff.AddAtomic(0, 1)
			return x
		}
	}
	s.blocks.AddAtomic(0, 1)
	s.fresh.AddAtomic(0, 1)
	return s.newFn()
}

// Put parks a block in an empty slot, or drops it to the GC after one full
// unsuccessful sweep — the bounded-retention guarantee.
func (s *Shared[T]) Put(x *T) {
	s.frees.AddAtomic(0, 1)
	for i := range s.slots {
		sp := &s.slots[i].P
		if sp.Load() == nil && sp.CompareAndSwap(nil, x) {
			s.handoff.AddAtomic(0, 1)
			return
		}
	}
	s.drops.AddAtomic(0, 1)
}

// Retained counts currently parked blocks (≤ len(slots) by construction).
func (s *Shared[T]) Retained() int {
	n := 0
	for i := range s.slots {
		if s.slots[i].P.Load() != nil {
			n++
		}
	}
	return n
}

// Attach publishes the front's counters under the same alloc_* families as
// Pool.Attach, labeled with the given class. The front has no events to
// trace, so tr is unused.
func (s *Shared[T]) Attach(reg *obs.Registry, class string, _ *trace.Tracer) {
	reg.AttachCounter(obs.Labeled("alloc_blocks_total", "class", class), s.blocks)
	reg.AttachCounter(obs.Labeled("alloc_fresh_total", "class", class), s.fresh)
	reg.AttachCounter(obs.Labeled("alloc_free_total", "class", class), s.frees)
	reg.AttachCounter(obs.Labeled("alloc_pool_handoff_total", "class", class), s.handoff)
	reg.AttachCounter(obs.Labeled("alloc_drop_total", "class", class), s.drops)
}
