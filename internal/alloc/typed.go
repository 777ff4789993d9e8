package alloc

import "repro/internal/obs/trace"

// Guard answers whether a block is currently protected by a reader and must
// not be reissued. *core.Hazards[T] satisfies it; tests may substitute any
// predicate. A Guard must be conservative: it may say "protected" for an
// unprotected block (costing only a wider probe), but never the reverse for
// a block whose protection was published before the probe.
type Guard[T any] interface {
	Hazarded(*T) bool
}

// Typed composes a Pool with a hazard-pointer Guard: its Get probes
// candidate blocks against the guard and never returns a protected one,
// done once at the plane's reissue boundary — which is the only place it is
// needed, because a block is invisible to readers between Put and Get.
//
// Why probing at reissue time is safe even across threads: a reader
// publishes its hazard pointer and then validates the block is still
// current; a writer retires the block (Put) only after unlinking it from the
// shared structure. So by the time a retired block reaches any Get, a reader
// still holding it has its hazard slot published, and the probe sees it.
// Handing a chain through the shared pool does not change this — the chain
// CAS happens after retirement, and the probe happens before reissue, so the
// protected block simply parks in some handle's cache until the reader
// leaves. Recycling remains an optimization, never a wait: a fully protected
// cache costs one fresh allocation, not a spin.
type Typed[T any] struct {
	pool  *Pool[T]
	guard Guard[T]
}

// NewTyped wraps pool with guard.
func NewTyped[T any](pool *Pool[T], guard Guard[T]) *Typed[T] {
	if guard == nil {
		panic("alloc: NewTyped needs a Guard")
	}
	return &Typed[T]{pool: pool, guard: guard}
}

// Pool returns the underlying pool (for Attach/Handle/Retained).
func (ty *Typed[T]) Pool() *Pool[T] { return ty.pool }

// Put returns a block to the plane (identical to Handle.Put — retirement
// needs no guard check; the check happens at reissue).
func (ty *Typed[T]) Put(h *Handle[T], x *T) { h.Put(x) }

// Get returns an unprotected block, or a fresh one (fresh=true) when the
// local cache — plus at most one chain taken from the shared pool — holds
// only protected blocks or nothing at all. Probed-but-protected blocks are
// parked aside and returned to the cache before Get returns, so they are
// retried on later Gets (readers leave; hazards clear). The probe budget is
// bounded by the cache capacity, keeping Get wait-free.
func (ty *Typed[T]) Get(h *Handle[T]) (x *T, fresh bool) {
	p := ty.pool
	// Fast path: the active stack's top block is free. This is the steady
	// state of every construction (retire/reissue alternate, so the hottest
	// block sits on top and its reader count is almost always zero).
	if h.nA > 0 {
		cand := h.headA
		if !ty.guard.Hazarded(cand) {
			h.headA = p.next(cand)
			h.nA--
			p.setNext(cand, nil)
			p.blocks.Add(h.id, 1)
			return cand, false
		}
	}
	return ty.getSlow(h)
}

// getSlow is Get minus the fast path: probe through the whole cache (the
// top block included — a reader may have left since the fast-path probe),
// refill once from the shared pool, fall back to a fresh allocation.
func (ty *Typed[T]) getSlow(h *Handle[T]) (x *T, fresh bool) {
	p := ty.pool
	budget := h.nA
	if h.headF != nil {
		budget += p.chain
	}
	refilled := false
	var got, parked *T
	probed := 0
	for {
		if budget == 0 {
			if refilled {
				break
			}
			refilled = true
			c := p.take(h.id)
			if c == nil {
				break
			}
			h.headA, h.nA = c, p.chain
			budget = p.chain
		}
		cand := h.popLocal()
		if cand == nil {
			break
		}
		budget--
		if !ty.guard.Hazarded(cand) {
			got = cand
			break
		}
		probed++
		p.setNext(cand, parked)
		parked = cand
	}
	for parked != nil {
		nx := p.next(parked)
		h.stash(parked)
		parked = nx
	}
	p.blocks.Add(h.id, 1)
	if got != nil {
		return got, false
	}
	p.fresh.Add(h.id, 1)
	if probed > 0 {
		// Every candidate was protected: the starvation case the space-bound
		// test drives. Fresh allocation keeps the caller wait-free.
		p.starved.Add(h.id, 1)
		p.tr.AnonInstant(trace.KindAllocStarved, uint64(probed), 0)
	}
	return p.newFn(), true
}
