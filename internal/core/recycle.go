package core

import (
	"sync/atomic"

	"repro/internal/pad"
)

// This file carries the state-record recycling discipline of the GC-based
// P-Sim variants: a Hazards table that tells recyclers (the memory plane,
// internal/alloc) which retired records are still being read.
//
// The paper's pooled layout (PSimWords) recycles records under seq1/seq2
// stamps and lets readers *detect* a torn copy after the fact. That is not
// available to the generic PSim: its State records hold arbitrary Go values
// (pointers, slices), so a reader overlapping a recycler's in-place rewrite
// would be a data race under the Go memory model no matter how it is
// validated afterwards. Observation 3.2's "retired two successful CASes ago"
// bound is likewise not enough on its own — a goroutine preempted mid-round
// can hold a record reference across arbitrarily many publishes.
//
// Hazard slots close that gap while keeping the paper's cost profile: a
// reader protects the record it is about to read with one store and one
// validating re-load (both on its own cache-line-padded slot / the single
// shared pointer), and a recycler reuses a retired record only after a scan
// of the slots finds no reader holding it. Because Go's sync/atomic
// operations are sequentially consistent, the classic hazard-pointer
// argument applies verbatim: if the scan misses a reader's slot store, that
// reader's validating re-load is ordered after the record's retirement and
// therefore fails, so the reader never touches the record.
//
// Progress guarantees. Recyclers never wait: the plane skips protected
// records and allocates fresh when every candidate is protected.
// Readers are lock-free, not wait-free: a protection attempt fails only
// when a concurrent CAS publishes a new record between the two loads, so
// every retry is paid for by another operation's success, but a bounded
// number of steps cannot be guaranteed (the classic hazard-pointer bound).
// Acquire with attempts > 0 IS bounded — the caller treats exhaustion like
// a failed CAS. Anonymous readers additionally never wait on each other: a
// claim sweep that finds every slot held by other (possibly preempted)
// readers allocates an overflow slot instead of spinning.

// Hazards is a table of hazard-pointer slots guarding records of type T.
// Slots [0, fixed) are single-writer: slot i belongs to the goroutine
// driving process i (stored on every protected read, never cleared — a
// stale slot merely pins one retired record until the owner's next read).
// Slots [fixed, fixed+anon) are claimable by anonymous readers (Read paths
// with no process id) with a CAS on the slot's claim word; when every
// claimable slot is held, readers grow an overflow list rather than wait.
type Hazards[T any] struct {
	fixed []pad.Pointer[T]
	anon  []anonSlot[T]
	// extra is a list of overflow anonymous slots, pushed when a claim sweep
	// finds every slot (preallocated and overflow) held — so a preempted
	// reader never blocks new readers. It grows to the instantaneous number
	// of simultaneous anonymous readers and is shrunk back by a bounded
	// reclaim pass on every ReleaseAnon (shrinkOverflow), so a one-off burst
	// of parked readers does not permanently tax every later Hazarded scan.
	extra atomic.Pointer[anonSlot[T]]

	// stats records overflow growth events (nil = none); tab tells a
	// construction's tables apart in the event payload.
	stats *StatsPlane
	tab   uint64
}

// anonSlot is one claimable hazard slot; claim word and pointer sit on the
// same (padded) line because they are always touched together. next links
// overflow slots (nil for the preallocated array; immutable once pushed).
type anonSlot[T any] struct {
	claimed atomic.Uint32
	ptr     atomic.Pointer[T]
	next    *anonSlot[T]
	_       pad.CacheLinePad
}

// tryClaim claims a free slot; the load filters the common held case so the
// sweep stays read-only until a free slot is actually seen.
func (s *anonSlot[T]) tryClaim() bool {
	return s.claimed.Load() == 0 && s.claimed.CompareAndSwap(0, 1)
}

// NewHazards returns a table with `fixed` per-process slots and `anon`
// claimable reader slots. Overflow growth is reported to st (nil = nowhere)
// as table tab.
func NewHazards[T any](fixed, anon int, st *StatsPlane, tab uint64) *Hazards[T] {
	if fixed < 0 {
		fixed = 0
	}
	if anon < 0 {
		anon = 0
	}
	return &Hazards[T]{
		fixed: make([]pad.Pointer[T], fixed),
		anon:  make([]anonSlot[T], anon),
		stats: st,
		tab:   tab,
	}
}

// Acquire loads src and protects the loaded record in fixed slot `slot`:
// store the pointer, re-load src, and accept only if the pointer is still
// current (at which point the record cannot be retired-and-recycled under
// the reader — see the package comment). It retries up to `attempts` times
// (attempts <= 0 means retry until success; every failed attempt implies a
// concurrent successful publish, so the unbounded form is lock-free).
// Returns the protected record and whether protection was established.
func (h *Hazards[T]) Acquire(slot int, src *atomic.Pointer[T], attempts int) (*T, bool) {
	s := &h.fixed[slot].P
	for try := 0; attempts <= 0 || try < attempts; try++ {
		p := src.Load()
		s.Store(p)
		if src.Load() == p {
			return p, true
		}
	}
	return nil, false
}

// anonClaimSweeps bounds how many times AcquireAnon rescans the claimable
// slots before allocating an overflow slot of its own. Claim failures mean
// other READERS hold the slots; unlike validation failures they imply no
// publisher progress, so spinning on them would let one preempted reader
// block every new reader indefinitely.
const anonClaimSweeps = 2

// AcquireAnon claims an anonymous slot — a preallocated one, an overflow
// one, or (when a bounded number of sweeps finds all of them held) a freshly
// pushed overflow slot — then runs the Acquire protocol in it until it
// succeeds. It returns the protected record and the claimed slot, which the
// caller must pass to ReleaseAnon when done with the record. Lock-free: the
// only unbounded loops are the protection validation (each failure means a
// concurrent publish succeeded) and the overflow push CAS (each failure
// means another reader pushed a slot).
func (h *Hazards[T]) AcquireAnon(src *atomic.Pointer[T]) (*T, *anonSlot[T]) {
	for sweep := 0; sweep < anonClaimSweeps; sweep++ {
		for i := range h.anon {
			if s := &h.anon[i]; s.tryClaim() {
				return h.protect(s, src), s
			}
		}
		for s := h.extra.Load(); s != nil; s = s.next {
			if s.tryClaim() {
				return h.protect(s, src), s
			}
		}
	}
	h.stats.HazardOverflowed(h.tab)
	s := &anonSlot[T]{}
	s.claimed.Store(1)
	for {
		s.next = h.extra.Load()
		if h.extra.CompareAndSwap(s.next, s) {
			return h.protect(s, src), s
		}
	}
}

// protect runs the Acquire protocol in slot s until it succeeds.
func (h *Hazards[T]) protect(s *anonSlot[T], src *atomic.Pointer[T]) *T {
	for {
		p := src.Load()
		s.ptr.Store(p)
		if src.Load() == p {
			return p
		}
	}
}

// anonShrinkMax bounds the overflow slots one ReleaseAnon may retire, so
// the reclaim pass adds O(1) work to the release path.
const anonShrinkMax = 4

// ReleaseAnon returns an anonymous slot claimed by AcquireAnon, then runs a
// bounded reclaim pass over the overflow list so burst-grown slots are given
// back once the burst subsides.
func (h *Hazards[T]) ReleaseAnon(s *anonSlot[T]) {
	s.ptr.Store(nil)
	s.claimed.Store(0)
	h.shrinkOverflow()
}

// shrinkOverflow retires up to anonShrinkMax free slots from the head of the
// overflow list. A slot is unlinked only after being claimed, so no reader
// can be protecting through it: claimed==0 implies ptr==nil (ReleaseAnon
// clears ptr before claim), and a claimed slot is exclusively ours. Unlinked
// slots are left claimed forever — unreachable from extra, they are garbage
// the moment the last traversal that saw them finishes, and can never hide a
// protected pointer from Hazarded. Only the head is unlinked (next fields
// are immutable once pushed, so mid-list surgery is off the table); a CAS
// loss means another reader pushed or shrank concurrently, and we simply
// hand the slot back and stop — the next release tries again. No ABA: a slot
// is never re-pushed, so the head CAS can only see each slot value once.
func (h *Hazards[T]) shrinkOverflow() {
	for i := 0; i < anonShrinkMax; i++ {
		s := h.extra.Load()
		if s == nil || !s.tryClaim() {
			return
		}
		if !h.extra.CompareAndSwap(s, s.next) {
			s.claimed.Store(0)
			return
		}
	}
}

// Clear resets fixed slot `slot`. Operations clear their slot when they
// return so a thread that goes quiet does not permanently pin the last
// record it protected (pinning retains that record's responses and state
// references for reference-typed objects, and keeps it from being reissued
// by the memory plane).
func (h *Hazards[T]) Clear(slot int) {
	h.fixed[slot].P.Store(nil)
}

// Protected returns the record fixed slot i holds (nil when clear). Scans
// that gate reuse on record contents rather than identity (SimQueue's era
// rule for consumed nodes) read the slots through it.
func (h *Hazards[T]) Protected(i int) *T { return h.fixed[i].P.Load() }

// Hazarded reports whether p is protected by any slot. Recyclers call it on
// retired records before overwriting them.
func (h *Hazards[T]) Hazarded(p *T) bool {
	for i := range h.fixed {
		if h.fixed[i].P.Load() == p {
			return true
		}
	}
	for i := range h.anon {
		if h.anon[i].ptr.Load() == p {
			return true
		}
	}
	for s := h.extra.Load(); s != nil; s = s.next {
		if s.ptr.Load() == p {
			return true
		}
	}
	return false
}
