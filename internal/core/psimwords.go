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

// PSimWords generalizes PSimWord to simulated states of any fixed number of
// 64-bit words, completing the faithful pooled layout for the paper's full
// State struct (Algorithm 2 stores the object state `st` inline in each
// pool record, whatever its size). The memory discipline is identical to
// PSimWord — pool of n·C+1 records, 16-bit index + 48-bit stamp CAS word,
// seq1/seq2 stamps around seqlock copies — but each record carries a
// stateWords-long vector, so the copy cost per round is O(stateWords + n),
// exactly the O(s) term that motivates L-Sim for large objects. Announce
// registers carry vectors of up to WordBatchBudget operations, read
// unchecked under the same staleness argument as PSimWord.
type PSimWords struct {
	n, c   int
	words  int // applied bit-vector words
	sWords int // state words
	apply  func(st []uint64, pid int, arg uint64) uint64

	announce []wordAnnounce
	act      *xatomic.SharedBits
	pool     []wordsState
	// p is the LL/SC-shaped shared variable (see PSimWord.p).
	p xatomic.TimedVar

	threads []wordsThread
	stats   *StatsPlane

	boLower, boUpper int

	// readScratch is the memory plane's anonymous front for ReadInto
	// scratch (bounded retention; see PSimWord.readScratch).
	readScratch *alloc.Shared[wordsThread]
}

// wordsState is one pool record with a multi-word state vector. bn/brv are
// the per-process batch-response rows, as in wordState.
type wordsState struct {
	seq1    atomic.Uint64
	applied []atomic.Uint64
	st      []atomic.Uint64
	rvals   []atomic.Uint64
	bn      []atomic.Uint64
	brv     []atomic.Uint64 // flat n×WordBatchBudget rows
	seq2    atomic.Uint64
	_       pad.CacheLinePad
}

type wordsThread struct {
	toggler   *xatomic.Toggler
	bo        *backoff.Adaptive
	poolIndex int
	inited    bool
	applied   xatomic.Snapshot
	active    xatomic.Snapshot
	diffs     xatomic.Snapshot
	st        []uint64
	rvals     []uint64
	bn        []uint64
	brv       []uint64 // flat n×WordBatchBudget rows
}

// NewPSimWords builds a pooled P-Sim for n threads over a state of
// len(init) words. c is the per-thread pool size (0 = default, ≥ 2). apply
// receives a PRIVATE copy of the state words it may mutate in place, the id
// of the process whose operation is applied, and that process's announced
// argument; it returns the response word. The shared ⟨index, stamp⟩
// variable assumes DefaultUpdateHorizon successful updates; use
// NewPSimWordsHorizon for longer-lived instances.
func NewPSimWords(n, c int, init []uint64, apply func(st []uint64, pid int, arg uint64) uint64) *PSimWords {
	return NewPSimWordsHorizon(n, c, init, apply, DefaultUpdateHorizon)
}

// NewPSimWordsHorizon is NewPSimWords with an explicit successful-update
// horizon (see NewPSimWordHorizon for the TimedWord/TimedSafe selection
// argument).
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
		panic("core: PSimWords needs C >= 2")
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

// Attach connects the instance's instrument (see PSimWord's Attach). Call
// once, before the first operation.
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

// copyState copies record src into thread scratch under the seq protocol.
// Batch counts read mid-rewrite are clamped before indexing; the stamp check
// rejects the whole copy afterwards.
func (u *PSimWords) copyState(src *wordsState, t *wordsThread) bool {
	s1 := src.seq1.Load()
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
	return s1 == src.seq2.Load()
}

// Apply announces arg for process i and returns the operation's response.
func (u *PSimWords) Apply(i int, arg uint64) uint64 {
	t := u.thread(i)
	op := u.stats.Start(i)

	an := &u.announce[i]
	an.args[0].Store(arg)
	an.cnt.Store(1)
	t.toggler.Toggle()
	t.bo.Wait()

	r, _ := u.applyAnnounced(i, t, op, 1, nil)
	return r
}

// ApplyBatch announces the operation vector args for process i and returns
// the responses in args order, appended to res[:0] (nil allocates). Vectors
// longer than WordBatchBudget are split into budget-sized chunks, each
// applied contiguously at its own linearization point.
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
		t.bo.Wait()
		_, res = u.applyAnnounced(i, t, op, m, res)
	}
	return res
}

// applyAnnounced runs the two-round protocol plus the fallback read for
// process i's just-announced vector of m operations (see PSimWord).
func (u *PSimWords) applyAnnounced(i int, t *wordsThread, op Op, m int, res []uint64) (uint64, []uint64) {
	st := u.stats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ {
		lpIdx, lpStamp, lpTag := u.p.LL()
		if !u.copyState(&u.pool[lpIdx], t) {
			continue
		}
		u.act.LoadInto(t.active)
		t.applied.XorInto(t.active, t.diffs)

		if t.diffs[myWord]&myMask == 0 {
			st.Served(i, op, um)
			if m == 1 {
				return t.rvals[i], res
			}
			return 0, appendRow(res, t.brv, t.bn, i)
		}

		dst := &u.pool[i*u.c+t.poolIndex]
		dst.seq1.Add(1)
		slots, ops := uint64(0), uint64(0)
		d := t.diffs
		for {
			k := d.BitSearchFirst()
			if k < 0 {
				break
			}
			d.ClearBit(k)
			an := &u.announce[k]
			cnt := int(an.cnt.Load())
			if cnt < 1 {
				cnt = 1
			} else if cnt > WordBatchBudget {
				cnt = WordBatchBudget
			}
			if cnt == 1 {
				t.rvals[k] = u.apply(t.st, k, an.args[0].Load())
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
		for w := 0; w < u.words; w++ {
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
		dst.seq2.Add(1)

		if u.p.SC(lpTag, uint16(i*u.c+t.poolIndex), lpStamp+1) {
			t.poolIndex = (t.poolIndex + 1) % u.c
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
		if j == 0 {
			st.BackoffGrew(i, t.bo)
			t.bo.Wait()
		}
	}

	st.Served(i, op, um)
	for tries := 0; tries < 64; tries++ {
		lpIdx, _ := u.p.Load()
		if u.copyState(&u.pool[lpIdx], t) {
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

// ReadInto copies the current state into dst (len ≥ StateWords). Lock-free.
// Scratch buffers for the seqlock copy come from the memory plane's
// anonymous front, so steady-state reads allocate nothing and parked
// scratch is bounded by readScratchSlots.
func (u *PSimWords) ReadInto(dst []uint64) {
	scratch := u.readScratch.Get()
	for {
		lpIdx, _ := u.p.Load()
		if u.copyState(&u.pool[lpIdx], scratch) {
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
