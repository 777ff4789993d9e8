package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/backoff"
	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xatomic"
)

// PSim is the practical Sim universal construction (Algorithms 2 and 3) for
// an arbitrary sequential object.
//
// Type parameters:
//   - S: the simulated object's state. Attempt works on a private copy of S
//     obtained with the Clone option (shallow copy by default, which is
//     correct when S is a value or an immutable pointer-to-structure).
//   - A: the argument type announced with each operation.
//   - R: the operation return type.
//
// Progress: Apply performs at most two combining rounds, then falls back to
// reading the published state, which by then must contain its result (the
// two-successful-CAS argument of Observation 3.2). With recycled records
// that terminal read needs hazard protection, and a protection attempt
// fails only when a concurrent CAS publishes meanwhile — so the fallback is
// lock-free (every retry is paid for by another operation completing)
// rather than strictly bounded; the same holds for Read(). Everything
// before the fallback is bounded. The theoretical variant (sim.go), which
// never recycles, keeps the paper's unqualified wait-freedom.
//
// Batching: each announce slot carries a VECTOR of operations
// (collect.BatchAnnounce); a combining round applies every announced
// process's whole pending vector in announce order, so one Fetch&Add + CAS
// cycle completes up to n×budget logical operations. ApplyBatch announces a
// caller's vector directly; Apply is a batch of one, announced and answered
// through the same path (responses come back in one collect.Rows row per
// process, a single operation's in a row of one). The two-round +
// fallback progress argument is unchanged — a round is bounded by
// n×DefaultBatchBudget sequential applications, still a constant for a given
// instance. Announce boxes are recycled with the same hazard discipline as
// state records; a box-protection failure means the announcing process
// re-announced, which requires an intervening successful publish, so the
// round is abandoned exactly like a failed CAS (see collect/batch.go).
//
// Memory discipline: like the paper's pool of State records, the hot path is
// allocation-free in steady state. Retired State records live in the unified
// memory plane (internal/alloc): each thread owns a two-stack handle of up to
// 2(n+1) records with O(1) get/put, whole chains of n+1 records move through
// a bounded shared pool when one thread retires what another consumes, and
// anything beyond the plane's O(threads × cache) bound is dropped to the GC —
// the Blelloch–Wei space guarantee. Reissue goes through alloc.Typed over
// this instance's hazard table: readers protect the record they are reading
// with a hazard slot (one store plus one validating re-load — see recycle.go
// for why Observation 3.2 alone cannot license reuse under arbitrary
// preemption), and Typed.Get probes candidates against those slots, so a
// protected record is never rewritten. A CAS still
// installs a pointer that is not the current one, hence no ABA and no torn
// read; the race detector agrees. When every cached record is protected, the
// thread allocates fresh instead of waiting — recycling is an optimization,
// never a wait.
type PSim[S, A, R any] struct {
	n     int
	apply func(st *S, pid int, arg A) R
	clone func(S) S
	// cloneInto, when set, rebuilds dst from src reusing dst's buffers (the
	// recycled record's previous state) instead of allocating via clone.
	cloneInto func(dst, src *S)

	announce *collect.BatchAnnounce[A]
	act      *xatomic.SharedBits
	state    atomic.Pointer[psimState[S, R]]
	haz      *Hazards[psimState[S, R]]
	pool     *alloc.Typed[psimState[S, R]] // the memory plane for retired records

	threads []psimThread[S, A, R]
	stats   *StatsPlane

	boLower, boUpper int
	batchBudget      int
}

// psimState is one published state record: the simulated state, the applied
// bit vector and the per-process responses (struct State of Algorithm 2
// minus the seq stamps — hazard-protected recycling makes torn reads
// impossible rather than merely detectable). res widens Algorithm 2's
// per-process return values to one row per process: the responses of its
// last served vector, a row of one for a single operation. A record is
// immutable from the moment it is published until the memory plane reissues
// it. nextFree is the plane's intrusive free-chain link, dead while the
// record is live.
type psimState[S, R any] struct {
	applied  xatomic.Snapshot
	res      collect.Rows[R]
	st       S
	nextFree *psimState[S, R]
}

// psimThread is a thread's private handle internals.
type psimThread[S, A, R any] struct {
	toggler *xatomic.Toggler
	bo      *backoff.Adaptive
	active  xatomic.Snapshot               // scratch: last read of Act
	diffs   xatomic.Snapshot               // scratch: applied XOR active
	blk     *alloc.Handle[psimState[S, R]] // memory-plane handle
	one     [1]A                           // Apply's batch of one
	oneRes  []R                            // and its response row
	inited  bool
}

// PSimOption configures a PSim instance.
type PSimOption[S any] func(*psimOptions[S])

type psimOptions[S any] struct {
	clone            func(S) S
	cloneInto        func(dst, src *S)
	boLower, boUpper int
	padActWords      bool
	batchBudget      int
}

// WithClone supplies a deep-copy function for the state, required when S
// contains shared mutable references (slices, maps) that combining rounds
// mutate in place.
func WithClone[S any](clone func(S) S) PSimOption[S] {
	return func(o *psimOptions[S]) { o.clone = clone }
}

// WithCloneInto supplies an in-place deep-copy: rebuild *dst from *src,
// reusing dst's existing buffers where possible. dst is either the state
// left in a recycled record (same shape as src) or the zero S (a fresh
// record), so the function must handle both, e.g. for a slice state:
//
//	func(dst, src *[]uint64) { *dst = append((*dst)[:0], *src...) }
//
// When set it replaces WithClone on the hot path, making combining rounds
// allocation-free for states whose buffers can be reused.
func WithCloneInto[S any](cloneInto func(dst, src *S)) PSimOption[S] {
	return func(o *psimOptions[S]) { o.cloneInto = cloneInto }
}

// WithBackoff bounds the adaptive backoff window to [lower, upper] spin
// iterations. upper = 0 disables backoff entirely (§4 notes P-Sim performs
// well even without it; the ablation bench quantifies the difference).
func WithBackoff[S any](lower, upper int) PSimOption[S] {
	return func(o *psimOptions[S]) { o.boLower, o.boUpper = lower, upper }
}

// WithPaddedAct spreads the Act bit vector one word per cache line instead
// of the paper's dense minimal-lines layout.
func WithPaddedAct[S any]() PSimOption[S] {
	return func(o *psimOptions[S]) { o.padActWords = true }
}

// WithBatchBudget bounds how many operations one announcement may carry;
// ApplyBatch splits longer vectors into budget-sized chunks, each its own
// announce/toggle round. The budget times n bounds the sequential work one
// combining round performs — the constant in the wait-freedom bound.
func WithBatchBudget[S any](b int) PSimOption[S] {
	return func(o *psimOptions[S]) {
		if b > 0 {
			o.batchBudget = b
		}
	}
}

// DefaultBackoffUpper is the default adaptive-backoff ceiling, in delay-loop
// iterations. It is deliberately modest: the right value is machine
// dependent and the harness sweeps it.
const DefaultBackoffUpper = 4096

// DefaultBatchBudget is the default per-announcement vector budget (see
// WithBatchBudget).
const DefaultBatchBudget = 64

// hazardAttempts bounds the per-round hazard acquisition loop. A failed
// attempt means a successful CAS intervened, so attempts failures imply that
// many publishes since the round began — enough for the Observation 3.2
// fallback argument — and the round is simply consumed, exactly like a
// failed seq1/seq2 consistency check in the pooled variant.
const hazardAttempts = 8

// anonReadSlots is the number of claimable hazard slots Read() draws from,
// on top of one slot per process id; more concurrent anonymous readers than
// this briefly queue on the claim words.
const anonReadSlots = 4

// NewPSim builds a P-Sim instance for n threads simulating a sequential
// object with initial state init and sequential operation apply. apply is
// called with a PRIVATE copy of the state it may mutate, the id of the
// process whose operation it is applying, and that operation's argument; it
// returns the operation's response.
func NewPSim[S, A, R any](n int, init S, apply func(st *S, pid int, arg A) R, opts ...PSimOption[S]) *PSim[S, A, R] {
	if n < 1 {
		panic("core: PSim needs n >= 1")
	}
	o := &psimOptions[S]{boLower: 1, boUpper: DefaultBackoffUpper, batchBudget: DefaultBatchBudget}
	for _, f := range opts {
		f(o)
	}
	clone := o.clone
	if clone == nil {
		clone = func(s S) S { return s }
	}
	var act *xatomic.SharedBits
	if o.padActWords {
		act = xatomic.NewSharedBitsPadded(n)
	} else {
		act = xatomic.NewSharedBits(n)
	}
	u := &PSim[S, A, R]{
		n:           n,
		apply:       apply,
		clone:       clone,
		cloneInto:   o.cloneInto,
		announce:    collect.NewBatchAnnounce[A](n),
		act:         act,
		threads:     make([]psimThread[S, A, R], n),
		stats:       NewStatsPlane(n),
		boLower:     o.boLower,
		boUpper:     o.boUpper,
		batchBudget: o.batchBudget,
	}
	u.haz = NewHazards[psimState[S, R]](n, anonReadSlots, u.stats, 0)
	// The unified memory plane: chains of n+1 records (per-thread cache
	// 2(n+1)) moving through n shared slots, reissue guarded by this
	// instance's hazard table.
	pool := alloc.NewPool(n, alloc.Config[psimState[S, R]]{
		New: func() *psimState[S, R] {
			return &psimState[S, R]{
				applied: xatomic.NewSnapshot(n),
				res:     collect.NewRows[R](n),
			}
		},
		Next:    func(s *psimState[S, R]) *psimState[S, R] { return s.nextFree },
		SetNext: func(s, nx *psimState[S, R]) { s.nextFree = nx },
		Chain:   n + 1,
		Slots:   n,
	})
	u.pool = alloc.NewTyped(pool, u.haz)
	u.stats.AttachAllocPool("state", pool)
	u.state.Store(&psimState[S, R]{
		applied: xatomic.NewSnapshot(n),
		res:     collect.NewRows[R](n),
		st:      init,
	})
	return u
}

// N returns the number of threads the instance was built for.
func (u *PSim[S, A, R]) N() int { return u.n }

// Attach connects the instance's instrument (see StatsPlane.Attach): its
// counters and memory plane published in reg under prefix, sampled latency
// and combining-degree histograms into rec, and committed rounds, publish
// failures, recycling hits/misses, backoff growth and hazard overflows into
// tr's per-thread rings. Any argument may be nil. The steady state stays
// allocation-free either way (event slots are preallocated). Call once,
// before the first operation.
func (u *PSim[S, A, R]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	u.stats.Attach(reg, prefix, rec, tr)
}

// thread lazily initializes and returns thread i's private handle internals.
// Apply(i, …) must only ever be called by one goroutine per i, which makes
// the lazy init safe.
func (u *PSim[S, A, R]) thread(i int) *psimThread[S, A, R] {
	if i < 0 || i >= u.n {
		panic(fmt.Sprintf("core: process id %d out of range [0,%d)", i, u.n))
	}
	t := &u.threads[i]
	if !t.inited {
		t.toggler = xatomic.NewToggler(u.act, i)
		t.bo = backoff.NewAdaptive(u.boLower, u.boUpper)
		t.active = xatomic.NewSnapshot(u.n)
		t.diffs = xatomic.NewSnapshot(u.n)
		t.blk = u.pool.Pool().Handle(i)
		t.oneRes = make([]R, 0, 1)
		t.inited = true
	}
	return t
}

// record returns a State record for process i to build the next round into:
// an unprotected recycled record from the memory plane, or a freshly
// allocated one when every cached record is still protected (or the plane is
// still warming up).
func (u *PSim[S, A, R]) record(i int, t *psimThread[S, A, R]) *psimState[S, R] {
	ns, fresh := u.pool.Get(t.blk)
	u.stats.Recycled(i, fresh, t.blk.Cached(), 0)
	return ns
}

// cloneStateInto rebuilds ns.st from ls.st, reusing ns's previous state
// buffers when a CloneInto was supplied.
func (u *PSim[S, A, R]) cloneStateInto(ns, ls *psimState[S, R]) {
	if u.cloneInto != nil {
		u.cloneInto(&ns.st, &ls.st)
		return
	}
	ns.st = u.clone(ls.st)
}

// Apply announces operation arg on behalf of process i, participates in
// combining until the operation has been applied, and returns its response.
// It is a batch of one: one chunk of ApplyBatch's path, through a
// per-thread one-element scratch so it allocates nothing. Each process id
// must be driven by a single goroutine at a time.
func (u *PSim[S, A, R]) Apply(i int, arg A) R {
	t := u.thread(i)
	t.one[0] = arg
	t.oneRes = u.applyChunk(i, t, t.one[:], t.oneRes[:0])
	return t.oneRes[0]
}

// ApplyBatch announces the operation vector args on behalf of process i and
// returns the responses in args order, appended to res[:0] (pass a slice
// kept across calls for an allocation-free steady state; nil allocates).
// The whole vector is applied contiguously at one linearization point per
// budget-sized chunk: no other process's operation is interleaved within a
// chunk. Progress: at most two combining rounds per chunk, then the
// lock-free hazard-protected fallback read. An empty args returns res
// truncated to zero length.
func (u *PSim[S, A, R]) ApplyBatch(i int, args []A, res []R) []R {
	t := u.thread(i)
	res = res[:0]
	for len(args) > 0 {
		c := min(len(args), u.batchBudget)
		res = u.applyChunk(i, t, args[:c], res)
		args = args[c:]
	}
	return res
}

// applyChunk announces and applies one budget-sized vector for process i.
func (u *PSim[S, A, R]) applyChunk(i int, t *psimThread[S, A, R], chunk []A, res []R) []R {
	op := u.stats.Start(i) // stamps are 0 (no clock read) unless this op is sampled
	if u.n == 1 {
		return u.applySolo(t, op, chunk, res)
	}
	// line 1: announce the operation vector, copied into a recycled
	// announce box (no heap box per call; see collect/batch.go).
	u.announce.Publish(i, chunk)
	SchedYield(i, PointAnnounce)
	t.toggler.Toggle() // lines 2–3: toggle pi's bit in Act (one F&A)
	u.stats.Accesses.Add(i, 2)
	t.bo.Wait() // line 4: back off so helpers accumulate work
	return u.applyAnnounced(i, t, op, len(chunk), res)
}

// applyAnnounced runs the two-round combining protocol plus the Observation
// 3.2 fallback for process i's just-published announcement of m operations,
// and appends the m responses (i's row) to res. The caller has already
// announced, toggled, and backed off.
func (u *PSim[S, A, R]) applyAnnounced(i int, t *psimThread[S, A, R], op Op, m int, res []R) []R {
	st := u.stats
	um := uint64(m)
	myWord, myMask := t.toggler.Word(), t.toggler.Mask()

	for j := 0; j < 2; j++ { // lines 5–27: at most two Attempt rounds
		// line 6: "LL" — read the state reference, hazard-protected so the
		// record cannot be recycled under us. A failed acquisition means
		// hazardAttempts publishes succeeded meanwhile; the round is consumed
		// like a failed seq-stamp check in the pooled variant.
		ls, ok := u.haz.Acquire(i, &u.state, hazardAttempts)
		st.Accesses.Add(i, 2)
		if !ok {
			st.CASFailed(i, j, 1)
			continue
		}
		SchedYield(i, PointCollect)
		u.act.LoadInto(t.active) // line 9: read Act
		st.Accesses.Add(i, uint64(u.act.Words()))
		// line 10: diffs = applied XOR active — the set of processes whose
		// announced operations have not been applied to ls.
		ls.applied.XorInto(t.active, t.diffs)

		// line 12: if pi's bit agrees, its vector has been applied; the
		// responses are already in ls (record protected — safe to read).
		if t.diffs[myWord]&myMask == 0 {
			res = append(res, ls.res.Row(i)...)
			u.haz.Clear(i) // don't pin ls while parked outside Apply
			st.Served(i, op, um)
			return res
		}
		solo := t.diffs.IsOnlyBit(myWord, myMask)

		// Build the successor record: lines 8/14–21 work on a private copy
		// rebuilt into a recycled record — applied and the response rows are
		// reused, and the state clone reuses buffers too under CloneInto.
		ns := u.record(i, t)
		ns.applied.CopyFrom(t.active)
		ns.res.Forward(&ls.res)
		u.cloneStateInto(ns, ls)
		slots, ops := uint64(0), uint64(0)
		abandoned := false
		d := t.diffs
		for { // lines 15–19: help every process in diffs
			k := d.BitSearchFirst()
			if k < 0 {
				break
			}
			d.ClearBit(k)
			var vec []A
			if k == i {
				// Our own box is stable for the duration of the operation —
				// no protection needed.
				vec = u.announce.OwnVec(i)
			} else {
				// line 17: discover k's operation vector, hazard-protected so
				// k's box pool cannot rewrite it under us. A validation
				// failure means k re-announced — its previous vector
				// completed, so a publish succeeded after we loaded ls and
				// our CAS below is doomed: abandon the round like a failed
				// CAS (the staleness argument in collect/batch.go).
				b, bok := u.announce.Protect(i, k)
				if !bok {
					abandoned = true
					break
				}
				vec = b.Vec()
			}
			st.Accesses.Inc(i) // the O(k) announce reads of P-Sim
			row := ns.res.Buf(k)
			for _, a := range vec { // line 18, once per announced operation
				row = append(row, u.apply(&ns.st, k, a))
			}
			ns.res.Serve(k, row)
			slots++
			ops += uint64(len(vec))
		}
		u.announce.Clear(i) // done reading other processes' boxes
		if !abandoned {
			// Read our responses BEFORE publishing: once published, ns may
			// be retired and recycled by any later winner.
			base := len(res)
			res = append(res, ns.res.Row(i)...)

			// lines 22–25: try to publish. CAS on the pointer plays the role
			// of the CAS on the timestamped pool index.
			st.Accesses.Inc(i)
			SchedYield(i, PointCAS)
			if u.state.CompareAndSwap(ls, ns) {
				u.haz.Clear(i)        // unpin ls before retiring it to the plane
				u.pool.Put(t.blk, ls) // line 26's pool rotation: retire the old record
				st.Committed(i, op, um, slots, op.Act(t.active), ops)
				if j == 0 || solo {
					t.bo.Shrink() // low contention: waiting was wasted
				}
				return res
			}
			res = res[:base] // speculative copies die with the failed round
		}
		u.pool.Put(t.blk, ns) // never published — immediately reusable
		st.CASFailed(i, j, 0)
		if j == 0 {
			st.BackoffGrew(i, t.bo) // line 13: contention detected — widen the window
			t.bo.Wait()
		}
	}

	// Lines 28–30: both rounds failed, so two successful CASes intervened;
	// the second one must have applied our operations (Observation 3.2 /
	// Lemma 3.3 carried to the practical algorithm — an abandoned round also
	// witnesses an intervening publish). Read and return under hazard
	// protection; each failed acquisition implies yet another concurrent
	// publish, so the unbounded form is lock-free.
	st.Accesses.Inc(i)
	ls, _ := u.haz.Acquire(i, &u.state, 0)
	res = append(res, ls.res.Row(i)...)
	u.haz.Clear(i)
	st.Served(i, op, um)
	return res
}

// applySolo is ApplyBatch's chunk for n == 1: the announce array, Act
// toggle, backoff wait, and CAS all exist to coordinate with helpers, and a
// single-thread instance can never have one. Every operation of batch is
// applied in order and the responses appended to res. No announced path
// runs at n == 1, so the record's response rows are never read and are left
// alone. Records still rotate through the memory plane's hazard-guarded
// reissue so concurrent Read()ers stay safe.
func (u *PSim[S, A, R]) applySolo(t *psimThread[S, A, R], op Op, batch []A, res []R) []R {
	ls := u.state.Load() // current record: never retired, safe to read
	ns := u.record(0, t)
	// applied stays all-zero (Act is never toggled on this path), but copy
	// it anyway so the record is well-formed if n==1 invariants ever change.
	ns.applied.CopyFrom(ls.applied)
	u.cloneStateInto(ns, ls)
	for _, a := range batch {
		res = append(res, u.apply(&ns.st, 0, a))
	}
	u.state.Store(ns) // sole writer: plain atomic publish
	u.pool.Put(t.blk, ls)
	u.stats.Accesses.Add(0, 2)
	ops := uint64(len(batch))
	u.stats.Committed(0, op, ops, 1, 1, ops)
	return res
}

// Read returns a snapshot of the current simulated state without announcing
// an operation. It may be called from any goroutine. The record is protected
// by a claimable hazard slot while the snapshot is taken, and the snapshot
// is produced with the instance's clone function — under WithCloneInto the
// in-place copy runs into a zero S — so it shares no buffers that record
// recycling would later rewrite. Under the default shallow clone the
// returned value may alias the live state and must be treated as immutable
// (the same condition under which the shallow clone is correct at all).
// Lock-free: a Read retries only when a concurrent Apply publishes.
func (u *PSim[S, A, R]) Read() S {
	ls, slot := u.haz.AcquireAnon(&u.state)
	if u.cloneInto != nil {
		// Only this branch's s escapes (its address goes to cloneInto), so
		// the default-clone path below returns without a heap allocation.
		var s S
		u.cloneInto(&s, &ls.st)
		u.haz.ReleaseAnon(slot)
		return s
	}
	s := u.clone(ls.st)
	u.haz.ReleaseAnon(slot)
	return s
}

// ReadFunc runs f on the current simulated state without announcing an
// operation or copying the state: the record stays protected by the same
// claimable hazard slot Read takes until f returns, so no recycler rewrites
// it meanwhile. f must treat the state as immutable and must not retain the
// pointer or anything reachable only through a buffer the record owns.
// Lock-free, like Read.
func (u *PSim[S, A, R]) ReadFunc(f func(*S)) {
	ls, slot := u.haz.AcquireAnon(&u.state)
	f(&ls.st)
	u.haz.ReleaseAnon(slot)
}

// Stats returns aggregated combining statistics (Figure 2 right: the average
// degree of helping is Stats().AvgHelping).
func (u *PSim[S, A, R]) Stats() Stats { return u.stats.Aggregate() }

// ResetStats zeroes the statistics counters.
func (u *PSim[S, A, R]) ResetStats() { u.stats.Reset() }
