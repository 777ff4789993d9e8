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

// PSimWords is the faithful pooled P-Sim of Algorithms 2 and 3 for a
// simulated state of any fixed number of 64-bit words (Algorithm 2 stores
// the object state `st` inline in each pool record, whatever its size). A
// word-sized state — the Fetch&Multiply object of Figure 2 — is simply the
// len(init) == 1 case.
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
//     after mutating its record, and readers copy in the opposite order —
//     seq2 first, the payload, then seq1 — accepting only matching stamps
//     (Algorithm 3 line 11). Each record's stamp pair increases
//     monotonically with every reuse, so a record reused by its owner can
//     never reproduce an already-seen pair and a torn copy is always
//     detected.
//
// A consistent copy is not enough on its own: an owner rewrites a record
// once it has published a newer one, so a reader delayed after reading P
// can copy, intact, a successor the owner has built but not yet published
// (and may never publish). ReadInto and a round's early return (line 12)
// therefore re-read P after the copy and trust it only if ⟨index, stamp⟩ is
// unchanged — stamps only grow, so an unchanged P means no publish, hence
// no rewrite of that record, happened meanwhile. A round that fails the
// check goes on to build a successor whose SC then fails, like any round
// that read a superseded state.
//
// Each record carries the StateWords-long state vector, so the copy cost per
// round is O(StateWords + n) — exactly the O(s) term that motivates L-Sim
// for large objects.
//
// Batching: each announce register is a fixed vector of WordBatchBudget
// argument words plus a count; ApplyBatch announces up to a budget's worth of
// operations per toggle and a combining round applies every announced
// process's whole vector in announce order. Unlike PSim's announce boxes,
// the fixed registers need no protection protocol at all: a combiner racing
// an owner's re-announcement may copy a torn mixture of two vectors, but a
// re-announcement implies the owner's previous vector completed, which
// implies an intervening successful publish — the combiner's CAS is already
// doomed and the garbage round is discarded, the same staleness argument
// that lets the paper read announce words unchecked. The per-process
// batch-response rows ride inside the pool records under the existing
// seq1/seq2 stamps.
//
// Every shared field is accessed through sync/atomic, which makes the
// seqlock race-detector-clean while keeping the exact access pattern of the
// paper's C code.
type PSimWords struct {
	n, c   int
	words  int // applied bit-vector words
	sWords int // state words
	apply  func(st []uint64, pid int, arg uint64) uint64

	announce []wordAnnounce // Announce[i]: single-writer argument vectors
	act      *xatomic.SharedBits
	pool     []wordsState
	// p is the LL/SC-shaped shared variable: the paper-exact packed
	// ⟨index, stamp⟩ word below the 2^48 wrap horizon, the atomic-copy
	// cell variant at or above it (xatomic.NewTimedVar).
	p xatomic.TimedVar

	threads []wordsThread
	stats   *StatsPlane

	boLower, boUpper int

	// readScratch is the memory plane's anonymous front: bounded scratch
	// recycling for ReadInto callers with no process id (same zero-alloc
	// steady state as sync.Pool, but retention is strictly bounded).
	readScratch *alloc.Shared[wordsThread]
}

// WordBatchBudget is the announce-vector capacity of the pooled P-Sim:
// ApplyBatch splits longer vectors into budget-sized chunks. Fixed (unlike
// PSim's WithBatchBudget) because the argument registers and the
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

// wordsState is one pool record: struct State of Algorithm 2. seq1/seq2
// bracket the payload exactly as in the paper; the record is padded so
// distinct threads' records do not share lines. bn[k]/brv rows carry
// process k's batch responses when its last served vector had more than one
// element (bn[k] = 0 otherwise — single-op traffic answers through rvals and
// pays only the n count words per copy).
type wordsState struct {
	seq1    atomic.Uint64
	applied []atomic.Uint64 // the applied bit vector, WordsFor(n) words
	st      []atomic.Uint64 // the simulated object's state
	rvals   []atomic.Uint64 // per-process return values
	bn      []atomic.Uint64 // per-process batch-response counts
	brv     []atomic.Uint64 // batch responses, flat n×WordBatchBudget rows
	seq2    atomic.Uint64
	_       pad.CacheLinePad
}

type wordsThread struct {
	toggler   *xatomic.Toggler
	bo        *backoff.Adaptive
	poolIndex int // rotates over [0, C)
	inited    bool
	// scratch buffers for the copied state
	applied xatomic.Snapshot
	active  xatomic.Snapshot
	diffs   xatomic.Snapshot
	st      []uint64
	rvals   []uint64
	bn      []uint64
	brv     []uint64 // flat n×WordBatchBudget rows
}

// DefaultPoolPerThread is the paper's "small constant C > 1" — the number of
// State records each thread rotates through. Larger C widens the reuse
// distance that protects the fallback read.
const DefaultPoolPerThread = 8

// DefaultUpdateHorizon is the successful-update count NewPSimWords assumes
// over an instance's lifetime: generous (at 10^7 publishes/sec it is over a
// day of non-stop updates) yet far below the 2^48 stamp-wrap bound, so the
// default instance keeps the paper-exact packed-word CAS. Deployments whose
// horizon reaches xatomic.TimedStampMax get the wrap-safe atomic-copy
// variant via NewPSimWordsHorizon.
const DefaultUpdateHorizon = 1 << 40

// readScratchSlots bounds the parked ReadInto scratch records of the
// anonymous front (more simultaneous anonymous readers than this pay a
// fresh allocation; fewer keep the zero-alloc steady state).
const readScratchSlots = 4

// NewPSimWords builds a pooled P-Sim for n threads over a state of
// len(init) words. c is the per-thread pool size (C ≥ 2; pass 0 for
// DefaultPoolPerThread). apply receives a PRIVATE copy of the state words it
// may mutate in place, the id of the process whose operation is applied, and
// that process's announced argument; it returns the response word. The
// shared ⟨index, stamp⟩ variable assumes DefaultUpdateHorizon successful
// updates; use NewPSimWordsHorizon for longer-lived instances.
func NewPSimWords(n, c int, init []uint64, apply func(st []uint64, pid int, arg uint64) uint64) *PSimWords {
	return NewPSimWordsHorizon(n, c, init, apply, DefaultUpdateHorizon)
}

// NewPSimWordsHorizon is NewPSimWords with an explicit successful-update
// horizon. While horizon stays below xatomic.TimedStampMax the shared
// variable is the paper's packed ⟨pool index, 48-bit stamp⟩ CAS word, whose
// ABA argument holds for up to 2^48 updates; at or beyond the bound the
// instance selects the wrap-safe LL/SC built from atomic-copy cells
// (xatomic.TimedSafe, per arXiv 1911.09671), trading one small allocation
// per successful publish for unconditional soundness. The choice is made
// once, here — the hot path pays no per-operation dispatch beyond the
// interface call either way.
func NewPSimWordsHorizon(n, c int, init []uint64, apply func(st []uint64, pid int, arg uint64) uint64, horizon uint64) *PSimWords {
	if n < 1 {
		panic("core: PSimWords needs n >= 1")
	}
	if len(init) < 1 {
		panic("core: PSimWords needs at least one state word")
	}
	if c == 0 {
		c = DefaultPoolPerThread
	}
	if c < 2 {
		panic("core: PSimWords needs C >= 2 (the paper's 'small constant C > 1')")
	}
	if n*c+1 > xatomic.TimedIndexMax {
		panic(fmt.Sprintf("core: n*C+1 = %d exceeds the 16-bit pool index", n*c+1))
	}
	w := xatomic.WordsFor(n)
	u := &PSimWords{
		n: n, c: c, words: w, sWords: len(init),
		apply:    apply,
		announce: make([]wordAnnounce, n),
		act:      xatomic.NewSharedBits(n),
		pool:     make([]wordsState, n*c+1),
		threads:  make([]wordsThread, n),
		stats:    NewStatsPlane(n),
		boLower:  1,
		boUpper:  DefaultBackoffUpper,
	}
	for i := range u.pool {
		u.pool[i].applied = make([]atomic.Uint64, w)
		u.pool[i].st = make([]atomic.Uint64, len(init))
		u.pool[i].rvals = make([]atomic.Uint64, n)
		u.pool[i].bn = make([]atomic.Uint64, n)
		u.pool[i].brv = make([]atomic.Uint64, n*WordBatchBudget)
	}
	// Record n·C carries the initial state (P = {n·C, 0} in Algorithm 2).
	initRec := &u.pool[n*c]
	for i, v := range init {
		initRec.st[i].Store(v)
	}
	u.p = xatomic.NewTimedVar(horizon)
	u.p.Store(uint16(n*c), 0)
	u.readScratch = alloc.NewShared(readScratchSlots, func() *wordsThread {
		return &wordsThread{
			applied: xatomic.NewSnapshot(n),
			st:      make([]uint64, len(init)),
			rvals:   make([]uint64, n),
			bn:      make([]uint64, n),
			brv:     make([]uint64, n*WordBatchBudget),
		}
	})
	u.stats.AttachAllocPool("scratch", u.readScratch)
	return u
}

// SetBackoff reconfigures the adaptive backoff bounds (0 upper disables).
// Call before any Apply.
func (u *PSimWords) SetBackoff(lower, upper int) { u.boLower, u.boUpper = lower, upper }

// Attach connects the instance's instrument (see PSim's Attach). The pooled
// P-Sim recycles through its fixed pool rather than the memory plane, so
// recycling events do not appear; rounds, serves, publish failures and
// backoff growth do. Call once, before the first operation.
func (u *PSimWords) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	u.stats.Attach(reg, prefix, rec, tr)
}

// N returns the number of threads.
func (u *PSimWords) N() int { return u.n }

// StateWords returns the state width in words.
func (u *PSimWords) StateWords() int { return u.sWords }

func (u *PSimWords) thread(i int) *wordsThread {
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
		t.st = make([]uint64, u.sWords)
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
func (u *PSimWords) copyState(src *wordsState, t *wordsThread) bool {
	s2 := src.seq2.Load() // read seq2 BEFORE the payload (the writer bumps it last)
	for w := 0; w < u.words; w++ {
		t.applied[w] = src.applied[w].Load()
	}
	for w := 0; w < u.sWords; w++ {
		t.st[w] = src.st[w].Load()
	}
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
	return s2 == src.seq1.Load() // read seq1 AFTER the payload (the writer bumps it first)
}

// unchanged reports whether P still holds ⟨idx, stamp⟩, i.e. whether a copy
// taken since P was read is the published state (see the type comment).
func (u *PSimWords) unchanged(idx uint16, stamp uint64) bool {
	i, s := u.p.Load()
	return i == idx && s == stamp
}

// Apply announces arg for process i and returns the operation's response.
// Each process id must be driven by a single goroutine.
func (u *PSimWords) Apply(i int, arg uint64) uint64 {
	t := u.thread(i)
	op := u.stats.Start(i)

	an := &u.announce[i]
	an.args[0].Store(arg) // line 1: announce (a vector of one)
	an.cnt.Store(1)
	t.toggler.Toggle() // lines 2–3: toggle pi's bit in Act
	SchedYield(i, PointAnnounce)
	t.bo.Wait() // line 4: backoff

	r, _ := u.applyAnnounced(i, t, op, 1, nil)
	return r
}

// ApplyBatch announces the operation vector args for process i and returns
// the responses in args order, appended to res[:0] (pass a slice kept across
// calls for an allocation-free steady state; nil allocates). Vectors longer
// than WordBatchBudget are split into budget-sized chunks, each applied
// contiguously at its own linearization point. Progress is Apply's.
func (u *PSimWords) ApplyBatch(i int, args []uint64, res []uint64) []uint64 {
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
		SchedYield(i, PointAnnounce)
		t.bo.Wait()
		_, res = u.applyAnnounced(i, t, op, m, res)
	}
	return res
}

// applyAnnounced runs the two-round combining protocol plus the fallback
// read for process i's just-announced vector of m operations. For m == 1 the
// response is returned directly (res untouched, may be nil); for m > 1 the m
// responses are appended to res. The caller has announced and toggled.
func (u *PSimWords) applyAnnounced(i int, t *wordsThread, op Op, m int, res []uint64) (uint64, []uint64) {
	st := u.stats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ { // lines 5–27
		lpIdx, lpStamp, lpTag := u.p.LL() // line 6: read ⟨index, stamp⟩

		// line 8: copy the current State into local scratch;
		// line 11: consistency check via the seq stamps.
		if !u.copyState(&u.pool[lpIdx], t) {
			continue
		}
		SchedYield(i, PointCollect)
		u.act.LoadInto(t.active)             // line 9
		t.applied.XorInto(t.active, t.diffs) // line 10

		// line 12: already applied? return the recorded responses, provided
		// the copy is still the published state (see the type comment).
		if t.diffs[myWord]&myMask == 0 && u.unchanged(lpIdx, lpStamp) {
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
			if cnt == 1 {
				t.rvals[k] = u.apply(t.st, k, an.args[0].Load()) // line 18
				t.bn[k] = 0
			} else {
				var rv uint64
				for q := 0; q < cnt; q++ {
					rv = u.apply(t.st, k, an.args[q].Load())
					t.brv[k*WordBatchBudget+q] = rv
				}
				t.rvals[k] = rv
				t.bn[k] = uint64(cnt)
			}
			slots++
			ops += uint64(cnt)
		}
		for w := 0; w < u.words; w++ { // line 20: applied ← active
			dst.applied[w].Store(t.active[w])
		}
		for w := 0; w < u.sWords; w++ {
			dst.st[w].Store(t.st[w])
		}
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
		SchedYield(i, PointCAS)
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
	// first and only then take the last copy unchecked (the unchecked read
	// is only unsafe if the record is recycled mid-read, which needs C
	// further publishes by one thread — the same window the paper's
	// unchecked read tolerates).
	st.Served(i, op, um)
	for tries := 0; ; tries++ {
		lpIdx, _ := u.p.Load()
		if u.copyState(&u.pool[lpIdx], t) || tries == 64 {
			if m == 1 {
				return t.rvals[i], res
			}
			return 0, appendRow(res, t.brv, t.bn, i)
		}
	}
}

// appendRow appends process i's batch-response row from flat scratch to res.
func appendRow(res, brv []uint64, bn []uint64, i int) []uint64 {
	for q := uint64(0); q < bn[i]; q++ {
		res = append(res, brv[i*WordBatchBudget+int(q)])
	}
	return res
}

// ReadInto copies the current state into dst (len ≥ StateWords). Unlike
// Apply it may be called from any goroutine; it is lock-free (it retries if
// it observes a record mid-rewrite, which requires concurrent successful
// publishes). Scratch buffers for the seqlock copy come from the memory
// plane's anonymous front, so steady-state reads allocate nothing and parked
// scratch is bounded by readScratchSlots.
func (u *PSimWords) ReadInto(dst []uint64) {
	scratch := u.readScratch.Get()
	for {
		lpIdx, lpStamp := u.p.Load()
		if u.copyState(&u.pool[lpIdx], scratch) && u.unchanged(lpIdx, lpStamp) {
			copy(dst, scratch.st)
			u.readScratch.Put(scratch)
			return
		}
	}
}

// Stats returns aggregated combining statistics.
func (u *PSimWords) Stats() Stats { return u.stats.Aggregate() }

// ResetStats zeroes the statistics counters.
func (u *PSimWords) ResetStats() { u.stats.Reset() }
