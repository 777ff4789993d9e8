package core

import (
	"sync/atomic"
	"testing"
)

func TestHazardsAcquireValidates(t *testing.T) {
	h := NewHazards[int](2, 1, nil, 0)
	var src atomic.Pointer[int]
	x := new(int)
	src.Store(x)

	p, ok := h.Acquire(0, &src, 4)
	if !ok || p != x {
		t.Fatalf("Acquire = (%p, %v), want (%p, true)", p, ok, x)
	}
	if !h.Hazarded(x) {
		t.Fatal("acquired record not reported hazarded")
	}
	if h.Hazarded(new(int)) {
		t.Fatal("unrelated record reported hazarded")
	}
}

func TestHazardsAnonClaimRelease(t *testing.T) {
	h := NewHazards[int](0, 2, nil, 0)
	var src atomic.Pointer[int]
	x := new(int)
	src.Store(x)

	p, slot := h.AcquireAnon(&src)
	if p != x {
		t.Fatalf("AcquireAnon = %p, want %p", p, x)
	}
	if !h.Hazarded(x) {
		t.Fatal("anon-acquired record not reported hazarded")
	}
	h.ReleaseAnon(slot)
	if h.Hazarded(x) {
		t.Fatal("record still hazarded after ReleaseAnon")
	}
	// The released slot must be claimable again.
	if _, slot2 := h.AcquireAnon(&src); slot2 != slot {
		h.ReleaseAnon(slot2)
	} else {
		h.ReleaseAnon(slot2)
	}
}

// TestHazardsAnonOverflow: when every claimable slot is held (e.g. by
// preempted readers), AcquireAnon must not wait — it grows the overflow
// list, and the overflow slot participates in Hazarded scans and is
// reclaimable for later readers.
func TestHazardsAnonOverflow(t *testing.T) {
	h := NewHazards[int](0, 1, nil, 0)
	var src atomic.Pointer[int]
	x := new(int)
	src.Store(x)

	_, held := h.AcquireAnon(&src) // occupy the only preallocated slot
	p, over := h.AcquireAnon(&src) // must succeed via an overflow slot
	if p != x || over == held {
		t.Fatalf("overflow AcquireAnon = (%p, %p), want fresh slot for %p", p, over, x)
	}
	h.ReleaseAnon(held)
	if !h.Hazarded(x) {
		t.Fatal("record protected only by the overflow slot not reported hazarded")
	}
	h.ReleaseAnon(over)
	if h.Hazarded(x) {
		t.Fatal("record still hazarded after both releases")
	}
	// A released overflow slot is claimable again without further growth.
	if _, s := h.AcquireAnon(&src); s != held && s != over {
		t.Fatalf("slot %p is neither released slot (%p, %p)", s, held, over)
	}
}

// overflowLen counts the linked overflow slots (test-only).
func (h *Hazards[T]) overflowLen() int {
	n := 0
	for s := h.extra.Load(); s != nil; s = s.next {
		n++
	}
	return n
}

// TestHazardsAnonOverflowShrinks is the regression test for burst reclaim:
// a burst of parked readers grows the overflow list, and once the burst
// subsides the bounded per-release reclaim pass drains it back to empty —
// overflow slots no longer tax Hazarded scans forever.
func TestHazardsAnonOverflowShrinks(t *testing.T) {
	const burst = 20
	h := NewHazards[int](0, 1, nil, 0)
	var src atomic.Pointer[int]
	x := new(int)
	src.Store(x)

	// Burst: 1 + burst simultaneous readers; all but one land in overflow.
	slots := make([]*anonSlot[int], 0, burst+1)
	for i := 0; i < burst+1; i++ {
		_, s := h.AcquireAnon(&src)
		slots = append(slots, s)
	}
	if got := h.overflowLen(); got != burst {
		t.Fatalf("overflow len = %d after burst, want %d", got, burst)
	}

	// Release the older half; the newer half still protects x, and the
	// reclaim pass must never unlink a held slot out from under Hazarded.
	for _, s := range slots[:burst/2] {
		h.ReleaseAnon(s)
	}
	if !h.Hazarded(x) {
		t.Fatal("record lost protection while half the readers still hold it")
	}
	for _, s := range slots[burst/2:] {
		h.ReleaseAnon(s)
	}
	if h.Hazarded(x) {
		t.Fatal("record still hazarded after every release")
	}

	// Each release retires at most anonShrinkMax slots and stops early at a
	// held head, so a few slots may linger; a short tail of acquire/release
	// cycles must drain the list completely.
	for i := 0; i < burst && h.overflowLen() > 0; i++ {
		_, s := h.AcquireAnon(&src)
		h.ReleaseAnon(s)
	}
	if got := h.overflowLen(); got != 0 {
		t.Fatalf("overflow len = %d after reclaim, want 0", got)
	}

	// The table still works end to end after shrinking.
	p, s := h.AcquireAnon(&src)
	if p != x {
		t.Fatalf("AcquireAnon after shrink = %p, want %p", p, x)
	}
	h.ReleaseAnon(s)
}
