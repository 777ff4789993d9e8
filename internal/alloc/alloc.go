// Package alloc is the repository's wait-free memory plane: a fixed-size
// block allocator in the style of "Concurrent Fixed-Size Allocation and Free
// in Constant Time" (Blelloch & Wei, arXiv 2008.04296), unifying the four
// ad-hoc recycling schemes the hot paths grew independently (P-Sim state
// rings, SimQueue node free-lists, L-Sim item bodies, PSimWord read scratch)
// behind one space-bounded discipline.
//
// # Construction
//
// Blocks are plain Go objects of one type T; the allocator never touches
// unsafe and never subdivides memory — "allocation" is taking a retired
// block out of circulation and "free" is putting one back, with the garbage
// collector as the always-correct fallback on either side. Free blocks are
// linked into CHAINS through a caller-supplied link field of T itself (the
// paper's blocks carry their stack links the same way), so the allocator
// needs no auxiliary nodes and moving B blocks is one pointer move.
//
// Each thread owns a Handle holding the paper's two stacks: an active stack
// of at most B blocks pushed and popped at the head, and one full backup
// chain of exactly B blocks. Get pops the active stack, flips the backup in
// when it empties, and falls back to the shared pool; Put pushes the active
// stack, and when it is full moves it wholesale to the backup slot — both
// O(1) in the number of blocks, exactly the two-stack argument of the paper.
//
// The shared pool is a fixed array of cache-line padded slots, each holding
// the head of one full chain. A thread with two full stacks CASes its backup
// chain into an empty slot (one bounded scan); a thread with two empty
// stacks CASes a chain out (one bounded scan). Both scans are wait-free: a
// full sweep that finds no slot simply gives up — the giver drops its chain
// to the garbage collector (which is what bounds the pool's space), the
// taker allocates fresh blocks (which is what keeps Get total). The CAS that
// publishes a chain is the release fence that makes its plain link writes
// visible to the taker, so cross-thread handoff needs no other
// synchronization. A successful take CAS(c, nil) transfers ownership of
// whatever the slot currently holds — an expected-value recurrence is
// harmless because the chain's links are only read after the CAS succeeds.
//
// # Space bound
//
// Beyond live blocks, the allocator retains at most
//
//	threads × 2B  (two stacks per handle)  +  slots × B  (the shared pool)
//
// blocks — O(per-thread cache × threads) for the default slots ≈ threads.
// Every block past that bound is dropped to the GC at Put time, never
// hoarded; Cap() reports the bound and Retained() (quiescent) measures it.
//
// # Composing with hazard pointers
//
// The allocator by itself promises only bounded space and O(1) operations.
// Constructions whose readers protect blocks with hazard pointers
// (core.Hazards) wrap the pool in a Typed front (typed.go), whose Get probes
// candidates against the guard and never reissues a protected block.
// Callers with no stable thread id (anonymous readers) use the Shared front
// (shared.go) instead of a Handle.
package alloc

import (
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// Config parameterizes a Pool. New, Next and SetNext are required: blocks
// carry their own free-chain link, so the pool needs one word of T (unused
// while the block is live) and accessors for it. Next/SetNext may be backed
// by a plain pointer field — the shared-slot CAS orders cross-thread link
// accesses — or by an atomic one if the field has other uses (queue nodes).
type Config[T any] struct {
	// New allocates a fresh block (the GC fallback of every Get miss).
	New func() *T
	// Next reads the block's free-chain link.
	Next func(*T) *T
	// SetNext writes the block's free-chain link.
	SetNext func(*T, *T)
	// Reset, if non-nil, clears a block at Put time (drop value references
	// before the block parks in a cache or slot).
	Reset func(*T)
	// Chain is B, the blocks per handoff chain (default 8). Per-handle cache
	// capacity is 2B.
	Chain int
	// Slots is the shared pool's slot count (default = threads, min 2).
	Slots int
}

// Pool is one size class of the memory plane: every block is a *T. Handles
// are single-owner; all cross-handle traffic goes through the shared slots.
type Pool[T any] struct {
	newFn   func() *T
	next    func(*T) *T
	setNext func(*T, *T)
	reset   func(*T)
	chain   int

	shared  []pad.Pointer[T]
	handles []Handle[T]

	// Counters are per-handle single-writer slots (see obs.Counter); the
	// plane's metric names are fixed so every pool in the process lands in
	// the same alloc_* families, split by the class label (Attach).
	blocks  *obs.Counter // blocks issued (recycled + fresh)
	fresh   *obs.Counter // Get misses paid with a heap allocation
	frees   *obs.Counter // blocks returned
	handoff *obs.Counter // chains moved through the shared pool (give + take)
	drops   *obs.Counter // blocks dropped to the GC (pool full — the space bound)
	starved *obs.Counter // guarded Gets that found every candidate protected

	tr *trace.Tracer
}

// NewPool returns a pool with `threads` single-owner handles.
func NewPool[T any](threads int, cfg Config[T]) *Pool[T] {
	if threads < 1 {
		threads = 1
	}
	if cfg.New == nil || cfg.Next == nil || cfg.SetNext == nil {
		panic("alloc: Config needs New, Next and SetNext")
	}
	if cfg.Chain < 1 {
		cfg.Chain = 8
	}
	if cfg.Slots < 1 {
		cfg.Slots = threads
	}
	if cfg.Slots < 2 {
		cfg.Slots = 2
	}
	p := &Pool[T]{
		newFn:   cfg.New,
		next:    cfg.Next,
		setNext: cfg.SetNext,
		reset:   cfg.Reset,
		chain:   cfg.Chain,
		shared:  make([]pad.Pointer[T], cfg.Slots),
		handles: make([]Handle[T], threads),
		blocks:  obs.NewCounter(threads),
		fresh:   obs.NewCounter(threads),
		frees:   obs.NewCounter(threads),
		handoff: obs.NewCounter(threads),
		drops:   obs.NewCounter(threads),
		starved: obs.NewCounter(threads),
	}
	for i := range p.handles {
		p.handles[i].p = p
		p.handles[i].id = i
	}
	return p
}

// Handle returns thread id's handle. Each handle must be driven by one
// goroutine at a time (the same contract as a construction's process id).
func (p *Pool[T]) Handle(id int) *Handle[T] { return &p.handles[id] }

// Chain returns B, the handoff chain length.
func (p *Pool[T]) Chain() int { return p.chain }

// Cap returns the retained-block space bound beyond live blocks:
// threads × 2B + slots × B.
func (p *Pool[T]) Cap() int {
	return len(p.handles)*2*p.chain + len(p.shared)*p.chain
}

// Attach publishes the pool's counters in reg (nil = unpublished) under the
// plane's fixed metric families, labeled with the given size class:
//
//	alloc_blocks_total{class="C"}        blocks issued
//	alloc_fresh_total{class="C"}         Get misses (heap allocations)
//	alloc_free_total{class="C"}          blocks returned
//	alloc_pool_handoff_total{class="C"}  chains exchanged via the shared pool
//	alloc_drop_total{class="C"}          blocks dropped to the GC (space bound)
//	alloc_starved_total{class="C"}       guarded Gets with every candidate protected
//
// Several pools may share a class (striped instances); the registry sums
// them. The timeline scraper auto-discovers each class as series
// alloc{class="C"} (see internal/obs/timeline).
//
// tr (nil = off) records shared-pool handoffs, drops and guard starvation
// as anonymous rare events (the per-operation hit/miss events stay with the
// owning construction, which knows its process ids). core.StatsPlane.Attach
// calls this for every pool its construction owns; call once, before
// operations start.
func (p *Pool[T]) Attach(reg *obs.Registry, class string, tr *trace.Tracer) {
	p.tr = tr
	reg.AttachCounter(obs.Labeled("alloc_blocks_total", "class", class), p.blocks)
	reg.AttachCounter(obs.Labeled("alloc_fresh_total", "class", class), p.fresh)
	reg.AttachCounter(obs.Labeled("alloc_free_total", "class", class), p.frees)
	reg.AttachCounter(obs.Labeled("alloc_pool_handoff_total", "class", class), p.handoff)
	reg.AttachCounter(obs.Labeled("alloc_drop_total", "class", class), p.drops)
	reg.AttachCounter(obs.Labeled("alloc_starved_total", "class", class), p.starved)
}

// Handle is one thread's two-stack block cache: an active stack of at most B
// blocks and one full backup chain of exactly B. Single-owner; padded so
// neighbouring handles' cursors do not share cache lines.
type Handle[T any] struct {
	p     *Pool[T]
	id    int
	headA *T // active stack head (chained through the link field)
	nA    int
	headF *T // backup chain of exactly p.chain blocks, or nil
	_     pad.CacheLinePad
}

// Cached returns the blocks currently parked in the handle's two stacks
// (diagnostic; owner-goroutine only — used for trace event payloads).
func (h *Handle[T]) Cached() int {
	n := h.nA
	if h.headF != nil {
		n += h.p.chain
	}
	return n
}

// Get returns a block: from the active stack, the backup chain, a chain
// taken from the shared pool, or — when all three are empty — a fresh
// allocation (fresh=true). O(1) plus one bounded slot scan on the take path.
func (h *Handle[T]) Get() (x *T, fresh bool) {
	p := h.p
	x = h.popLocal()
	if x == nil {
		if c := p.take(h.id); c != nil {
			h.headA, h.nA = c, p.chain
			x = h.popLocal()
		}
	}
	p.blocks.Add(h.id, 1)
	if x != nil {
		return x, false
	}
	p.fresh.Add(h.id, 1)
	return p.newFn(), true
}

// Put returns a block to the plane. O(1) plus one bounded slot scan when a
// full backup chain is handed to the shared pool; when the pool is full the
// chain is dropped to the GC — Put never waits and never allocates.
func (h *Handle[T]) Put(x *T) {
	p := h.p
	if p.reset != nil {
		p.reset(x)
	}
	p.frees.Add(h.id, 1)
	h.stash(x)
}

// stash is Put without the reset/accounting: push onto the active stack,
// rolling a full active stack into the backup slot (and the previous backup,
// if any, into the shared pool) first.
func (h *Handle[T]) stash(x *T) {
	p := h.p
	if h.nA == p.chain {
		if h.headF != nil {
			p.give(h.id, h.headF)
		}
		h.headF, h.headA, h.nA = h.headA, nil, 0
	}
	p.setNext(x, h.headA)
	h.headA = x
	h.nA++
}

// popLocal pops the active stack, flipping the backup chain in when the
// active stack is empty. Returns nil when both are empty.
func (h *Handle[T]) popLocal() *T {
	if h.nA == 0 {
		if h.headF == nil {
			return nil
		}
		h.headA, h.headF, h.nA = h.headF, nil, h.p.chain
	}
	x := h.headA
	h.headA = h.p.next(x)
	h.nA--
	h.p.setNext(x, nil)
	return x
}

// give moves a full chain into an empty shared slot: one bounded scan
// starting at the handle's stagger offset, one CAS attempt per slot. A full
// sweep with no empty slot drops the chain to the GC — that drop is the
// space bound, not a failure.
func (p *Pool[T]) give(id int, chain *T) {
	for k := 0; k < len(p.shared); k++ {
		s := &p.shared[(id+k)%len(p.shared)].P
		if s.Load() == nil && s.CompareAndSwap(nil, chain) {
			p.handoff.Add(id, 1)
			p.tr.AnonInstant(trace.KindAllocHandoff, 1, uint64(p.chain))
			return
		}
	}
	p.drops.Add(id, uint64(p.chain))
	p.tr.AnonInstant(trace.KindAllocHandoff, 2, uint64(p.chain))
}

// take removes one full chain from the shared pool: one bounded scan, one
// CAS attempt per occupied slot. Returns nil when the sweep finds nothing —
// the caller allocates fresh, so recycling is an optimization, never a wait.
func (p *Pool[T]) take(id int) *T {
	for k := 0; k < len(p.shared); k++ {
		s := &p.shared[(id+k)%len(p.shared)].P
		if c := s.Load(); c != nil && s.CompareAndSwap(c, nil) {
			p.handoff.Add(id, 1)
			p.tr.AnonInstant(trace.KindAllocHandoff, 0, uint64(p.chain))
			return c
		}
	}
	return nil
}

// Retained counts the blocks currently parked in handles and shared slots.
// Quiescent-point diagnostic (it walks chains non-atomically); the result is
// ≤ Cap() by construction — the space-bound test pins this.
func (p *Pool[T]) Retained() int {
	total := 0
	for i := range p.handles {
		h := &p.handles[i]
		total += h.nA
		if h.headF != nil {
			total += p.chain
		}
	}
	for i := range p.shared {
		for c := p.shared[i].P.Load(); c != nil; c = p.next(c) {
			total++
		}
	}
	return total
}
