package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
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
// that lets the paper read announce words unchecked. Apply is a batch of
// one. The per-process response rows ride inside the pool records under the
// existing seq1/seq2 stamps.
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
// ApplyBatch splits longer vectors into budget-sized chunks. Smaller than
// PSim's DefaultBatchBudget because the argument registers and the
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
// distinct threads' records do not share lines. Algorithm 2's per-process
// return values are widened to one response row per process, kept flat in
// atomic words for the seqlock copy (collect.Rows holds plain slices, which
// the copy cannot read atomically): process k's last served vector answered
// through bn[k] responses, the q-th at brv[q·n+k], a single operation through
// a row of one (bn[k] = 1). The rows are stored column by column so that
// single-operation traffic copies n dense words, not one cache line per
// process.
type wordsState struct {
	seq1    atomic.Uint64
	applied []atomic.Uint64 // the applied bit vector, WordsFor(n) words
	st      []atomic.Uint64 // the simulated object's state
	bn      []atomic.Uint64 // per-process response-row lengths
	brv     []atomic.Uint64 // responses, WordBatchBudget columns of n words
	seq2    atomic.Uint64
	_       pad.CacheLinePad
}

// wordsThread is process i's private handle internals and its Round (see
// round.go); a bare one, with only the copy scratch set, serves ReadInto.
type wordsThread struct {
	p         Proc
	u         *PSimWords
	i         int
	poolIndex int // rotates over [0, C)
	// the loaded ⟨index, stamp⟩ and its SC tag, and the record built into
	lpIdx   uint16
	lpStamp uint64
	lpTag   xatomic.TimedTag
	dst     *wordsState
	// scratch buffers for the copied state
	applied xatomic.Snapshot
	st      []uint64
	bn      []uint64
	brv     []uint64  // WordBatchBudget columns of n words
	res     []uint64  // responses collected so far
	one     [1]uint64 // Apply's batch of one
	oneRes  []uint64  // and its response row
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
			u:       u,
			applied: xatomic.NewSnapshot(n),
			st:      make([]uint64, len(init)),
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
	if t.u == nil {
		t.p = NewProc(u.act, u.stats, i, u.boLower, u.boUpper)
		t.u, t.i = u, i
		t.applied = xatomic.NewSnapshot(u.n)
		t.st = make([]uint64, u.sWords)
		t.bn = make([]uint64, u.n)
		t.brv = make([]uint64, u.n*WordBatchBudget)
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
		bn := src.bn[k].Load()
		if bn > WordBatchBudget {
			bn = WordBatchBudget
		}
		t.bn[k] = bn
		for q := k; q < int(bn)*u.n; q += u.n {
			t.brv[q] = src.brv[q].Load()
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

// Apply announces arg for process i and returns the operation's response:
// ApplyBatch of a batch of one, through a per-thread one-element scratch.
// Each process id must be driven by a single goroutine.
func (u *PSimWords) Apply(i int, arg uint64) uint64 {
	t := u.thread(i)
	t.one[0] = arg
	t.oneRes = u.ApplyBatch(i, t.one[:], t.oneRes)
	return t.oneRes[0]
}

// ApplyBatch announces the operation vector args for process i and returns
// the responses in args order, appended to res[:0] (pass a slice kept across
// calls for an allocation-free steady state; nil allocates). Vectors longer
// than WordBatchBudget are split into budget-sized chunks, each applied
// contiguously at its own linearization point. There is no solo round: at
// n == 1 the announced round runs with backoff off.
func (u *PSimWords) ApplyBatch(i int, args []uint64, res []uint64) []uint64 {
	t := u.thread(i)
	t.res = res[:0]
	an := &u.announce[i]
	for len(args) > 0 {
		m := min(len(args), WordBatchBudget)
		op := u.stats.Start(i)
		for j, a := range args[:m] { // line 1: announce
			an.args[j].Store(a)
		}
		an.cnt.Store(uint64(m))
		args = args[m:]
		t.p.Combine(t, op, m)
	}
	res, t.res = t.res, nil
	return res
}

// Load is Round.Load: read ⟨index, stamp⟩ (line 6), copy the State it
// names into local scratch (line 8) and check the seq stamps (line 11).
func (t *wordsThread) Load() (xatomic.Snapshot, bool) {
	u := t.u
	t.lpIdx, t.lpStamp, t.lpTag = u.p.LL()
	return t.applied, u.copyState(&u.pool[t.lpIdx], t)
}

// Done is Round.Done: return the recorded responses, provided the copy is
// still the published state — a consistent copy of a record its owner has
// rewritten but not published is vetoed (see the type comment).
func (t *wordsThread) Done() bool {
	if !t.u.unchanged(t.lpIdx, t.lpStamp) {
		return false
	}
	t.appendRow()
	return true
}

// Build is Round.Build: open our own next pool record (line 14: seq1 =
// seq2 + 1) and write applied ← active (line 20).
func (t *wordsThread) Build(active xatomic.Snapshot) {
	u := t.u
	t.dst = &u.pool[t.i*u.c+t.poolIndex]
	t.dst.seq1.Add(1)
	for w := 0; w < u.words; w++ {
		t.dst.applied[w].Store(active[w])
	}
}

// Serve is Round.Serve: apply k's count and vector (line 17, read
// unchecked: see the type comment) to the scratch state.
func (t *wordsThread) Serve(k int) (uint64, bool) {
	u := t.u
	an := &u.announce[k]
	cnt := min(max(an.cnt.Load(), 1), WordBatchBudget)
	for q := uint64(0); q < cnt; q++ { // line 18, once per operation
		t.brv[int(q)*u.n+k] = u.apply(t.st, k, an.args[q].Load())
	}
	t.bn[k] = cnt
	return cnt, true
}

// Seal is Round.Seal: write the state and response rows into the record
// and close it (line 21). The caller's row stays in scratch.
func (t *wordsThread) Seal() {
	u, dst := t.u, t.dst
	for w := 0; w < u.sWords; w++ {
		dst.st[w].Store(t.st[w])
	}
	for k := 0; k < u.n; k++ {
		dst.bn[k].Store(t.bn[k])
		for q := k; q < int(t.bn[k])*u.n; q += u.n {
			dst.brv[q].Store(t.brv[q])
		}
	}
	dst.seq2.Add(1)
}

// Publish is Round.Publish: SC P to ⟨our record, stamp+1⟩ (lines 22–25; a
// CAS on the packed word below the wrap horizon, a cell swap above it),
// then rotate to our next record (line 26).
func (t *wordsThread) Publish() bool {
	u := t.u
	if !u.p.SC(t.lpTag, uint16(t.i*u.c+t.poolIndex), t.lpStamp+1) {
		return false
	}
	t.poolIndex = (t.poolIndex + 1) % u.c
	t.appendRow()
	return true
}

// Discard is Round.Discard: the record is ours and is rewritten next round.
func (t *wordsThread) Discard() {}

// Fallback is Round.Fallback. The paper reads the response from
// Pool[P.index] unchecked; we retry the seq-checked read a bounded number
// of times first and only then take the last copy unchecked (the unchecked
// read is only unsafe if the record is recycled mid-read, which needs C
// further publishes by one thread — the same window the paper's unchecked
// read tolerates).
func (t *wordsThread) Fallback() {
	for tries := 0; ; tries++ {
		if _, ok := t.Load(); ok || tries == 64 {
			t.appendRow()
			return
		}
	}
}

// appendRow appends process i's response row from the copied scratch to
// the collected responses.
func (t *wordsThread) appendRow() {
	n := t.u.n
	for q := t.i; q < int(t.bn[t.i])*n; q += n {
		t.res = append(t.res, t.brv[q])
	}
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
