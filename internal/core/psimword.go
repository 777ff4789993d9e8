package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/xatomic"
)

// PSimWord is the faithful pooled P-Sim of Algorithms 2 and 3, specialised
// to a word-sized simulated state (the Fetch&Multiply object of Figure 2 is
// exactly that; SimStack's top pointer also fits one word).
//
// It reproduces the paper's memory discipline precisely:
//
//   - a shared Pool of n·C+1 State records, thread i owning records
//     [i·C, (i+1)·C) and rotating through them after successful publishes
//     (the extra record n·C holds the initial state);
//   - the single shared variable P packing a 16-bit pool index and a 48-bit
//     timestamp into one CAS word (xatomic.TimedWord), standing in for the
//     LL/SC object;
//   - seq1/seq2 consistency stamps: a writer increments seq1 before and seq2
//     after mutating its record, and readers copy seq1 first, the payload,
//     then seq2, accepting only matching stamps (Algorithm 3 line 11). Each
//     record's stamp pair increases monotonically with every reuse, so a
//     record reused by its owner can never reproduce an already-seen pair
//     and a torn copy is always detected.
//
// Batching: each announce register is a fixed vector of WordBatchBudget
// argument words plus a count; ApplyBatch announces up to a budget's worth of
// operations per toggle and a combining round applies every announced
// process's whole vector in announce order. Unlike the generic variant's
// announce boxes, the fixed registers need no protection protocol at all: a
// combiner racing an owner's re-announcement may copy a torn mixture of two
// vectors, but a re-announcement implies the owner's previous vector
// completed, which implies an intervening successful publish — the
// combiner's CAS is already doomed and the garbage round is discarded, the
// same staleness argument that lets the paper read announce words unchecked.
// The per-process batch-response rows ride inside the pool records under the
// existing seq1/seq2 stamps.
//
// Every shared field is accessed through sync/atomic, which makes the
// seqlock race-detector-clean while keeping the exact access pattern of the
// paper's C code.
type PSimWord struct {
	n, c  int
	words int // bit-vector words for n bits
	apply func(st, arg uint64) (newSt, rv uint64)

	announce []wordAnnounce // Announce[i]: single-writer argument vectors
	act      *xatomic.SharedBits
	pool     []wordState
	// p is the LL/SC-shaped shared variable: the paper-exact packed
	// ⟨index, stamp⟩ word below the 2^48 wrap horizon, the atomic-copy
	// cell variant at or above it (xatomic.NewTimedVar).
	p xatomic.TimedVar

	threads []wordThread
	stats   *StatsPlane

	boLower, boUpper int

	// readScratch is the memory plane's anonymous front: bounded scratch
	// recycling for Read()ers with no process id (replaces sync.Pool — same
	// zero-alloc steady state, but retention is strictly bounded).
	readScratch *alloc.Shared[wordThread]
}

// WordBatchBudget is the announce-vector capacity of the word-specialised
// variants: ApplyBatch splits longer vectors into budget-sized chunks. Fixed
// (unlike PSim's WithBatchBudget) because the argument registers and the
// batch-response rows in every pool record are statically sized by it.
const WordBatchBudget = 8

// wordAnnounce is one process's announce register: a count and up to
// WordBatchBudget argument words, padded so announcing processes do not
// share lines. Single-writer; combiners read it unchecked (see the type
// comment for why torn reads are harmless).
type wordAnnounce struct {
	cnt  atomic.Uint64
	args [WordBatchBudget]atomic.Uint64
	_    pad.CacheLinePad
}

// wordState is one pool record: struct State of Algorithm 2 for a word-sized
// object. seq1/seq2 bracket the payload exactly as in the paper; the record
// is padded so distinct threads' records do not share lines. bn[k]/brv rows
// carry process k's batch responses when its last served vector had more
// than one element (bn[k] = 0 otherwise — single-op traffic answers through
// rvals and pays only the n count words per copy).
type wordState struct {
	seq1    atomic.Uint64
	applied []atomic.Uint64 // the applied bit vector, WordsFor(n) words
	st      atomic.Uint64   // the simulated object's state
	rvals   []atomic.Uint64 // per-process return values
	bn      []atomic.Uint64 // per-process batch-response counts
	brv     []atomic.Uint64 // batch responses, flat n×WordBatchBudget rows
	seq2    atomic.Uint64
	_       pad.CacheLinePad
}

type wordThread struct {
	toggler   *xatomic.Toggler
	bo        *backoff.Adaptive
	poolIndex int // rotates over [0, C)
	inited    bool
	// scratch buffers for the copied state
	applied xatomic.Snapshot
	active  xatomic.Snapshot
	diffs   xatomic.Snapshot
	rvals   []uint64
	bn      []uint64
	brv     []uint64 // flat n×WordBatchBudget rows
}

// DefaultPoolPerThread is the paper's "small constant C > 1" — the number of
// State records each thread rotates through. Larger C widens the reuse
// distance that protects the fallback read.
const DefaultPoolPerThread = 8

// DefaultUpdateHorizon is the successful-update count NewPSimWord assumes
// over an instance's lifetime: generous (at 10^7 publishes/sec it is over a
// day of non-stop updates) yet far below the 2^48 stamp-wrap bound, so the
// default instance keeps the paper-exact packed-word CAS. Deployments whose
// horizon reaches xatomic.TimedStampMax get the wrap-safe atomic-copy
// variant via NewPSimWordHorizon.
const DefaultUpdateHorizon = 1 << 40

// NewPSimWord builds a pooled P-Sim for n threads with C records per thread
// (C ≥ 2; pass 0 for DefaultPoolPerThread), initial state init, and the
// sequential transition function apply. The shared ⟨index, stamp⟩ variable
// assumes DefaultUpdateHorizon successful updates; use NewPSimWordHorizon
// for longer-lived instances.
func NewPSimWord(n, c int, init uint64, apply func(st, arg uint64) (uint64, uint64)) *PSimWord {
	return NewPSimWordHorizon(n, c, init, apply, DefaultUpdateHorizon)
}

// NewPSimWordHorizon is NewPSimWord with an explicit successful-update
// horizon. While horizon stays below xatomic.TimedStampMax the shared
// variable is the paper's packed ⟨pool index, 48-bit stamp⟩ CAS word, whose
// ABA argument holds for up to 2^48 updates; at or beyond the bound the
// instance selects the wrap-safe LL/SC built from atomic-copy cells
// (xatomic.TimedSafe, per arXiv 1911.09671), trading one small allocation
// per successful publish for unconditional soundness. The choice is made
// once, here — the hot path pays no per-operation dispatch beyond the
// interface call either way.
func NewPSimWordHorizon(n, c int, init uint64, apply func(st, arg uint64) (uint64, uint64), horizon uint64) *PSimWord {
	if n < 1 {
		panic("core: PSimWord needs n >= 1")
	}
	if c == 0 {
		c = DefaultPoolPerThread
	}
	if c < 2 {
		panic("core: PSimWord needs C >= 2 (the paper's 'small constant C > 1')")
	}
	if n*c+1 > xatomic.TimedIndexMax {
		panic(fmt.Sprintf("core: n*C+1 = %d exceeds the 16-bit pool index", n*c+1))
	}
	w := xatomic.WordsFor(n)
	u := &PSimWord{
		n: n, c: c, words: w,
		apply:    apply,
		announce: make([]wordAnnounce, n),
		act:      xatomic.NewSharedBits(n),
		pool:     make([]wordState, n*c+1),
		threads:  make([]wordThread, n),
		stats:    NewStatsPlane(n),
		boLower:  1,
		boUpper:  DefaultBackoffUpper,
	}
	for i := range u.pool {
		u.pool[i].applied = make([]atomic.Uint64, w)
		u.pool[i].rvals = make([]atomic.Uint64, n)
		u.pool[i].bn = make([]atomic.Uint64, n)
		u.pool[i].brv = make([]atomic.Uint64, n*WordBatchBudget)
	}
	// Record n·C carries the initial state (P = {n·C, 0} in Algorithm 2).
	u.pool[n*c].st.Store(init)
	u.p = xatomic.NewTimedVar(horizon)
	u.p.Store(uint16(n*c), 0)
	u.readScratch = alloc.NewShared(readScratchSlots, func() *wordThread {
		return &wordThread{
			applied: xatomic.NewSnapshot(n),
			rvals:   make([]uint64, n),
			bn:      make([]uint64, n),
			brv:     make([]uint64, n*WordBatchBudget),
		}
	})
	u.stats.AttachAllocPool("scratch", u.readScratch)
	return u
}

// readScratchSlots bounds the parked Read() scratch records of the word
// variants' anonymous fronts (more simultaneous anonymous readers than this
// pay a fresh allocation; fewer keep the zero-alloc steady state).
const readScratchSlots = 4

// SetBackoff reconfigures the adaptive backoff bounds (0 upper disables).
// Call before any Apply.
func (u *PSimWord) SetBackoff(lower, upper int) { u.boLower, u.boUpper = lower, upper }

// Attach connects the instance's instrument (see PSim's Attach). The pooled
// variant recycles through its fixed pool rather than the memory plane, so
// recycling events do not appear; rounds, serves, publish failures and
// backoff growth do. Call once, before the first operation.
func (u *PSimWord) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	u.stats.Attach(reg, prefix, rec, tr)
}

// N returns the number of threads.
func (u *PSimWord) N() int { return u.n }

func (u *PSimWord) thread(i int) *wordThread {
	t := &u.threads[i]
	if !t.inited {
		t.toggler = xatomic.NewToggler(u.act, i)
		upper := u.boUpper
		if u.n == 1 {
			upper = 0 // no helper can exist: waiting is pure overhead
		}
		t.bo = backoff.NewAdaptive(u.boLower, upper)
		t.applied = xatomic.NewSnapshot(u.n)
		t.active = xatomic.NewSnapshot(u.n)
		t.diffs = xatomic.NewSnapshot(u.n)
		t.rvals = make([]uint64, u.n)
		t.bn = make([]uint64, u.n)
		t.brv = make([]uint64, u.n*WordBatchBudget)
		t.inited = true
	}
	return t
}

// copyState copies pool record src into thread-local scratch under the
// seq1/seq2 protocol and reports whether the copy is consistent. A count
// read mid-rewrite may be garbage, so it is clamped before indexing; the
// stamp check rejects the whole copy afterwards.
func (u *PSimWord) copyState(src *wordState, t *wordThread) (st uint64, ok bool) {
	s1 := src.seq1.Load() // read seq1 BEFORE the payload
	for w := 0; w < u.words; w++ {
		t.applied[w] = src.applied[w].Load()
	}
	st = src.st.Load()
	for k := 0; k < u.n; k++ {
		t.rvals[k] = src.rvals[k].Load()
		bn := src.bn[k].Load()
		if bn > WordBatchBudget {
			bn = WordBatchBudget
		}
		t.bn[k] = bn
		for j := uint64(0); j < bn; j++ {
			t.brv[k*WordBatchBudget+int(j)] = src.brv[k*WordBatchBudget+int(j)].Load()
		}
	}
	s2 := src.seq2.Load() // read seq2 AFTER the payload
	return st, s1 == s2
}

// Apply announces arg for process i and returns the operation's response.
// Each process id must be driven by a single goroutine.
func (u *PSimWord) Apply(i int, arg uint64) uint64 {
	t := u.thread(i)
	op := u.stats.Start(i)

	an := &u.announce[i]
	an.args[0].Store(arg) // line 1: announce (a vector of one)
	an.cnt.Store(1)
	t.toggler.Toggle() // lines 2–3: toggle pi's bit in Act
	t.bo.Wait()        // line 4: backoff

	r, _ := u.applyAnnounced(i, t, op, 1, nil)
	return r
}

// ApplyBatch announces the operation vector args for process i and returns
// the responses in args order, appended to res[:0] (pass a slice kept across
// calls for an allocation-free steady state; nil allocates). Vectors longer
// than WordBatchBudget are split into budget-sized chunks, each applied
// contiguously at its own linearization point. Progress is Apply's.
func (u *PSimWord) ApplyBatch(i int, args []uint64, res []uint64) []uint64 {
	res = res[:0]
	if len(args) == 0 {
		return res
	}
	t := u.thread(i)
	for len(args) > 0 {
		m := len(args)
		if m > WordBatchBudget {
			m = WordBatchBudget
		}
		chunk := args[:m]
		args = args[m:]
		if m == 1 {
			res = append(res, u.Apply(i, chunk[0]))
			continue
		}
		op := u.stats.Start(i)
		an := &u.announce[i]
		for j, a := range chunk {
			an.args[j].Store(a)
		}
		an.cnt.Store(uint64(m))
		t.toggler.Toggle()
		t.bo.Wait()
		_, res = u.applyAnnounced(i, t, op, m, res)
	}
	return res
}

// applyAnnounced runs the two-round combining protocol plus the fallback
// read for process i's just-announced vector of m operations. For m == 1 the
// response is returned directly (res untouched, may be nil); for m > 1 the m
// responses are appended to res. The caller has announced and toggled.
func (u *PSimWord) applyAnnounced(i int, t *wordThread, op Op, m int, res []uint64) (uint64, []uint64) {
	st := u.stats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ { // lines 5–27
		lpIdx, lpStamp, lpTag := u.p.LL() // line 6: read ⟨index, stamp⟩
		src := &u.pool[lpIdx]

		// line 8: copy the current State into local scratch;
		// line 11: consistency check via the seq stamps.
		stWord, ok := u.copyState(src, t)
		if !ok {
			continue
		}
		u.act.LoadInto(t.active)             // line 9
		t.applied.XorInto(t.active, t.diffs) // line 10

		// line 12: already applied? return the recorded responses.
		if t.diffs[myWord]&myMask == 0 {
			st.Served(i, op, um)
			if m == 1 {
				return t.rvals[i], res
			}
			return 0, appendRow(res, t.brv, t.bn, i)
		}

		// lines 14–21: write the successor into our own pool record.
		dst := &u.pool[i*u.c+t.poolIndex]
		dst.seq1.Add(1) // line 14: open the record (seq1 = seq2 + 1)
		slots, ops := uint64(0), uint64(0)
		d := t.diffs
		for { // lines 15–19: help everyone in diffs
			k := d.BitSearchFirst()
			if k < 0 {
				break
			}
			d.ClearBit(k)
			an := &u.announce[k]
			cnt := int(an.cnt.Load()) // line 17 (unchecked: see type comment)
			if cnt < 1 {
				cnt = 1
			} else if cnt > WordBatchBudget {
				cnt = WordBatchBudget
			}
			var rv uint64
			if cnt == 1 {
				stWord, rv = u.apply(stWord, an.args[0].Load()) // line 18
				t.bn[k] = 0
			} else {
				for q := 0; q < cnt; q++ {
					stWord, rv = u.apply(stWord, an.args[q].Load())
					t.brv[k*WordBatchBudget+q] = rv
				}
				t.bn[k] = uint64(cnt)
			}
			t.rvals[k] = rv
			slots++
			ops += uint64(cnt)
		}
		for w := 0; w < u.words; w++ { // line 20: applied ← active
			dst.applied[w].Store(t.active[w])
		}
		dst.st.Store(stWord)
		for k := 0; k < u.n; k++ {
			dst.rvals[k].Store(t.rvals[k])
			dst.bn[k].Store(t.bn[k])
			for q := uint64(0); q < t.bn[k]; q++ {
				dst.brv[k*WordBatchBudget+int(q)].Store(t.brv[k*WordBatchBudget+int(q)])
			}
		}
		dst.seq2.Add(1) // line 21: close the record

		// lines 22–25: SC P to ⟨our record, stamp+1⟩ (a CAS on the packed
		// word below the wrap horizon, a cell swap above it).
		if u.p.SC(lpTag, uint16(i*u.c+t.poolIndex), lpStamp+1) {
			t.poolIndex = (t.poolIndex + 1) % u.c // line 26
			st.Committed(i, op, um, slots, op.Act(t.active), ops)
			if j == 0 {
				t.bo.Shrink()
			}
			if m == 1 {
				return t.rvals[i], res
			}
			return 0, appendRow(res, t.brv, t.bn, i)
		}
		st.CASFailed(i, j, 0)
		if j == 0 { // line 13's compute_backoff, applied on failure
			st.BackoffGrew(i, t.bo)
			t.bo.Wait()
		}
	}

	// Lines 28–30: both rounds failed ⇒ two successful CASes intervened and
	// the second applied our operations. The paper reads Pool[P.index].rvals
	// unchecked; we retry the seq-checked read a bounded number of times
	// first (the unchecked read is only unsafe if the record is recycled
	// mid-read, which needs C further publishes by one thread — the same
	// window the paper's unchecked read tolerates).
	st.Served(i, op, um)
	for tries := 0; tries < 64; tries++ {
		lpIdx, _ := u.p.Load()
		src := &u.pool[lpIdx]
		if _, ok := u.copyState(src, t); ok {
			if m == 1 {
				return t.rvals[i], res
			}
			return 0, appendRow(res, t.brv, t.bn, i)
		}
	}
	lpIdx, _ := u.p.Load()
	src := &u.pool[lpIdx]
	if m == 1 {
		return src.rvals[i].Load(), res
	}
	bn := src.bn[i].Load()
	if bn > WordBatchBudget {
		bn = WordBatchBudget
	}
	for q := uint64(0); q < bn; q++ {
		res = append(res, src.brv[i*WordBatchBudget+int(q)].Load())
	}
	return 0, res
}

// appendRow appends process i's batch-response row from flat scratch to res.
func appendRow(res, brv []uint64, bn []uint64, i int) []uint64 {
	for q := uint64(0); q < bn[i]; q++ {
		res = append(res, brv[i*WordBatchBudget+int(q)])
	}
	return res
}

// Read returns the current simulated state word. Unlike Apply it may be
// called from any goroutine; it is lock-free (it retries if it observes a
// record mid-rewrite, which requires concurrent successful publishes).
// Scratch buffers for the seqlock copy come from the memory plane's
// anonymous front, so steady-state reads allocate nothing and parked scratch
// is bounded by readScratchSlots.
func (u *PSimWord) Read() uint64 {
	scratch := u.readScratch.Get()
	for {
		lpIdx, _ := u.p.Load()
		if st, ok := u.copyState(&u.pool[lpIdx], scratch); ok {
			u.readScratch.Put(scratch)
			return st
		}
	}
}

// Stats returns aggregated combining statistics.
func (u *PSimWord) Stats() Stats { return u.stats.Aggregate() }

// ResetStats zeroes the statistics counters.
func (u *PSimWord) ResetStats() { u.stats.Reset() }
