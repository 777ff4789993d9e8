// Package flatcombining is a from-scratch implementation of flat combining
// (Hendler, Incze, Shavit and Tzafrir, SPAA 2010), the closest prior art to
// Sim and its strongest competitor in Figures 2 and 3. A thread publishes
// its operation in a publication list, then either spins until a combiner
// serves it or — if it acquires the global lock — becomes the combiner and
// serves everyone. Flat combining is BLOCKING: a preempted or crashed
// combiner stalls all other threads, which is precisely the robustness gap
// the wait-free Sim closes (paper §1).
//
// The knobs the paper tuned for its comparison (number of combining rounds
// per lock acquisition, publication-list cleanup frequency) are exposed as
// options.
package flatcombining

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/spin"
)

// FC runs operations of argument type A and response type R against a
// sequential object guarded by a global lock, combining announced operations
// whenever a thread holds the lock.
type FC[A, R any] struct {
	lock  spin.TTAS
	_     pad.CacheLinePad
	head  atomic.Pointer[record[A, R]] // publication list (LIFO of records)
	_pad2 pad.CacheLinePad
	apply func(pid int, arg A) R // the sequential object; combiner-only

	combinerPasses atomic.Uint64 // lock acquisitions (combining sessions)
	servedTotal    atomic.Uint64 // operations applied by combiners

	rounds       int // scans of the publication list per lock acquisition
	cleanupEvery int // combining sessions between publication-list cleanups
	maxIdleAge   uint64
}

// record is one thread's publication-list node. The request/response
// hand-off is synchronized on the pending flag: the requester writes arg
// then stores pending=true (release); the combiner loads pending (acquire),
// reads arg, writes resp, then stores pending=false (release); the requester
// observes pending=false (acquire) and reads resp. Both plain fields are
// therefore data-race free under the Go memory model.
type record[A, R any] struct {
	next     atomic.Pointer[record[A, R]]
	enlisted atomic.Bool
	pending  atomic.Bool
	pid      int
	arg      A
	resp     R
	lastUsed atomic.Uint64 // combining pass that last served this record
	_        pad.CacheLinePad
}

// New returns a flat-combining wrapper around the sequential function apply
// for up to any number of threads. rounds is the number of publication-list
// scans per combining session (the paper's "number of combining rounds");
// cleanupEvery is how many sessions pass between publication-list cleanups.
// Pass 0 for the defaults (rounds 3, cleanup every 64 sessions).
func New[A, R any](apply func(pid int, arg A) R, rounds, cleanupEvery int) *FC[A, R] {
	if rounds <= 0 {
		rounds = 3
	}
	if cleanupEvery <= 0 {
		cleanupEvery = 64
	}
	return &FC[A, R]{
		apply:        apply,
		rounds:       rounds,
		cleanupEvery: cleanupEvery,
		maxIdleAge:   uint64(cleanupEvery) * 2,
	}
}

// Handle is one goroutine's private access point.
type Handle[A, R any] struct {
	fc  *FC[A, R]
	rec *record[A, R]
}

// NewHandle returns a per-goroutine handle for process pid.
func (f *FC[A, R]) NewHandle(pid int) *Handle[A, R] {
	return &Handle[A, R]{fc: f, rec: &record[A, R]{pid: pid}}
}

// enlist links the record at the head of the publication list. The flag is
// set before the record becomes reachable: set after the CAS, a cleanup
// could unlink the record in between and the late store would mark an
// unlinked record enlisted, so its owner would never re-enlist it.
func (f *FC[A, R]) enlist(r *record[A, R]) {
	r.enlisted.Store(true)
	for {
		h := f.head.Load()
		r.next.Store(h)
		if f.head.CompareAndSwap(h, r) {
			return
		}
	}
}

// Apply publishes arg and returns its response, combining if this thread
// wins the lock.
func (h *Handle[A, R]) Apply(arg A) R {
	f, r := h.fc, h.rec
	if !r.enlisted.Load() {
		f.enlist(r)
	}
	r.arg = arg
	r.pending.Store(true)

	for {
		if !r.pending.Load() {
			return r.resp
		}
		if f.lock.TryLock() {
			f.combine()
			f.lock.Unlock()
			if !r.pending.Load() {
				return r.resp
			}
			// The cleanup pass may have unlinked us before our request was
			// published to the combiner's scan; re-enlist and retry.
			if !r.enlisted.Load() {
				f.enlist(r)
			}
			continue
		}
		runtime.Gosched()
	}
}

// combine serves pending requests; caller must hold the lock.
func (f *FC[A, R]) combine() {
	pass := f.combinerPasses.Add(1)
	served := uint64(0)
	for round := 0; round < f.rounds; round++ {
		any := false
		for rec := f.head.Load(); rec != nil; rec = rec.next.Load() {
			if rec.pending.Load() {
				rec.resp = f.apply(rec.pid, rec.arg)
				rec.lastUsed.Store(pass)
				rec.pending.Store(false)
				served++
				any = true
			}
		}
		if !any {
			break
		}
	}
	f.servedTotal.Add(served)
	if pass%uint64(f.cleanupEvery) == 0 {
		f.cleanup(pass)
	}
}

// cleanup unlinks records idle for more than maxIdleAge passes; caller must
// hold the lock. The head record stays (simplifies the unlink), matching the
// original implementation. A record is unlinked before its enlisted flag is
// cleared: once the flag reads false its owner may re-enlist it at the head,
// rewriting its next link, and an unlink that read that link afterwards
// would close the list into a cycle.
func (f *FC[A, R]) cleanup(pass uint64) {
	prev := f.head.Load()
	if prev == nil {
		return
	}
	for cur := prev.next.Load(); cur != nil; cur = prev.next.Load() {
		if !cur.pending.Load() && pass-cur.lastUsed.Load() > f.maxIdleAge {
			prev.next.Store(cur.next.Load())
			cur.enlisted.Store(false)
			continue
		}
		prev = cur
	}
}

// Stats reports the combining behaviour: sessions (lock acquisitions),
// operations served, and the average combining degree (served/sessions) —
// flat combining's analogue of the helping degree in Figure 2 (right).
type Stats struct {
	Sessions   uint64
	Served     uint64
	AvgCombine float64
}

// Stats returns a snapshot of the combining statistics.
func (f *FC[A, R]) Stats() Stats {
	s := Stats{Sessions: f.combinerPasses.Load(), Served: f.servedTotal.Load()}
	if s.Sessions > 0 {
		s.AvgCombine = float64(s.Served) / float64(s.Sessions)
	}
	return s
}
