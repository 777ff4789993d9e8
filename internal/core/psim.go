package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
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
//     made by the WithCloneInto option (a shallow copy by default, which is
//     correct when S is a value or an immutable pointer-to-structure).
//   - A: the argument type announced with each operation.
//   - R: the operation return type.
//
// Progress: Apply runs Proc.Combine (round.go), bounded up to its
// Observation 3.2 fallback read, which with recycled records is lock-free
// rather than strictly bounded; the same holds for Read(). The theoretical
// variant (sim.go), which never recycles, keeps the paper's unqualified
// wait-freedom.
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
// state records (see collect/batch.go).
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
	// cloneInto, when set, rebuilds dst from src, reusing dst's buffers
	// (the recycled record's previous state) where it can; nil means a
	// shallow copy.
	cloneInto func(dst, src *S)

	announce *collect.BatchAnnounce[A]
	act      *xatomic.SharedBits
	state    atomic.Pointer[psimState[S, R]]
	haz      *Hazards[psimState[S, R]]
	pool     *alloc.Typed[psimState[S, R]] // the memory plane for retired records

	threads []psimThread[S, A, R]
	stats   *StatsPlane

	boLower, boUpper int
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

// psimThread is process i's private handle internals and its Round (see
// round.go): the record it loaded and the successor it builds, the chunk it
// announced and the responses it collects.
type psimThread[S, A, R any] struct {
	p      Proc
	u      *PSim[S, A, R]
	i      int
	blk    *alloc.Handle[psimState[S, R]] // memory-plane handle
	ls, ns *psimState[S, R]               // loaded record, successor
	chunk  []A                            // the announced vector
	res    []R                            // responses collected so far
	base   int                            // len(res) before this round's row
	one    [1]A                           // Apply's batch of one
	oneRes []R                            // and its response row
}

// PSimOption configures a PSim instance.
type PSimOption[S any] func(*psimOptions[S])

type psimOptions[S any] struct {
	cloneInto        func(dst, src *S)
	boLower, boUpper int
}

// WithCloneInto supplies the state copy, required when S contains shared
// mutable references (slices, maps) that combining rounds mutate in place:
// rebuild *dst from *src, reusing dst's existing buffers where possible.
// dst is either the state left in a recycled record (same shape as src) or
// the zero S (a fresh record), so the function must handle both, e.g. for a
// slice state:
//
//	func(dst, src *[]uint64) { *dst = append((*dst)[:0], *src...) }
//
// which makes combining rounds allocation-free. A value-returning deep copy
// fits as func(dst, src *S) { *dst = clone(*src) }, at one fresh copy per
// round.
func WithCloneInto[S any](cloneInto func(dst, src *S)) PSimOption[S] {
	return func(o *psimOptions[S]) { o.cloneInto = cloneInto }
}

// WithBackoff bounds the adaptive backoff window to [lower, upper] spin
// iterations. upper = 0 disables backoff entirely (§4 notes P-Sim performs
// well even without it; the ablation bench quantifies the difference).
func WithBackoff[S any](lower, upper int) PSimOption[S] {
	return func(o *psimOptions[S]) { o.boLower, o.boUpper = lower, upper }
}

// DefaultBackoffUpper is the default adaptive-backoff ceiling, in delay-loop
// iterations. It is deliberately modest: the right value is machine
// dependent and the harness sweeps it.
const DefaultBackoffUpper = 4096

// DefaultBatchBudget bounds how many operations one announcement may carry;
// ApplyBatch splits longer vectors into budget-sized chunks, each its own
// announce/toggle round. The budget times n bounds the sequential work one
// combining round performs — the constant in the wait-freedom bound.
const DefaultBatchBudget = 64

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
	o := &psimOptions[S]{boLower: 1, boUpper: DefaultBackoffUpper}
	for _, f := range opts {
		f(o)
	}
	u := &PSim[S, A, R]{
		n:         n,
		apply:     apply,
		cloneInto: o.cloneInto,
		announce:  collect.NewBatchAnnounce[A](n),
		act:       xatomic.NewSharedBits(n),
		threads:   make([]psimThread[S, A, R], n),
		stats:     NewStatsPlane(n),
		boLower:   o.boLower,
		boUpper:   o.boUpper,
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

// thread lazily initializes (setting u) and returns thread i's internals.
// Apply(i, …) must only ever be called by one goroutine per i, which makes
// the lazy init safe.
func (u *PSim[S, A, R]) thread(i int) *psimThread[S, A, R] {
	if i < 0 || i >= u.n {
		panic(fmt.Sprintf("core: process id %d out of range [0,%d)", i, u.n))
	}
	t := &u.threads[i]
	if t.u == nil {
		t.p = NewProc(u.act, u.stats, i, u.boLower, u.boUpper)
		t.u, t.i = u, i
		t.blk = u.pool.Pool().Handle(i)
	}
	return t
}

// Apply announces operation arg on behalf of process i, participates in
// combining until the operation has been applied, and returns its response.
// It is ApplyBatch of a batch of one, through a per-thread one-element
// scratch so it allocates nothing. Each process id must be driven by a
// single goroutine at a time.
func (u *PSim[S, A, R]) Apply(i int, arg A) R {
	t := u.thread(i)
	t.one[0] = arg
	t.oneRes = u.ApplyBatch(i, t.one[:], t.oneRes)
	return t.oneRes[0]
}

// ApplyBatch announces the operation vector args on behalf of process i and
// returns the responses in args order, appended to res[:0] (pass a slice
// kept across calls for an allocation-free steady state; nil allocates).
// The whole vector is applied contiguously at one linearization point per
// budget-sized chunk: no other process's operation is interleaved within a
// chunk. Progress: at most two combining rounds per chunk, then the
// lock-free hazard-protected fallback read. An empty args returns res
// truncated to zero length. At n == 1 each chunk runs one solo round and
// nothing is announced.
func (u *PSim[S, A, R]) ApplyBatch(i int, args []A, res []R) []R {
	t := u.thread(i)
	t.res = res[:0]
	for len(args) > 0 {
		c := min(len(args), DefaultBatchBudget)
		t.chunk = args[:c]
		args = args[c:]
		op := u.stats.Start(i) // stamps are 0 (no clock read) unless this op is sampled
		if u.n == 1 {
			t.p.Solo(t, op, c)
			continue
		}
		// line 1: announce the operation vector, copied into a recycled
		// announce box (no heap box per call; see collect/batch.go).
		u.announce.Publish(i, t.chunk)
		t.p.Combine(t, op, c)
	}
	res, t.chunk, t.res = t.res, nil, nil // keep no caller slices
	return res
}

// Load is Round.Load: the "LL" of line 6, hazard-protected so the record
// cannot be recycled under the round.
func (t *psimThread[S, A, R]) Load() (xatomic.Snapshot, bool) {
	if t.ls = t.u.haz.RoundLoad(t.i, &t.u.state, t.u.n == 1); t.ls == nil {
		return nil, false
	}
	return t.ls.applied, true
}

// Done is Round.Done: the responses are already in the loaded record, which
// is protected, so safe to read.
func (t *psimThread[S, A, R]) Done() bool {
	t.res = append(t.res, t.ls.res.Row(t.i)...)
	t.u.haz.Clear(t.i) // don't pin ls while parked outside Apply
	return true
}

// Build is Round.Build: the successor is rebuilt into a record from the
// memory plane — an unprotected recycled one, or a fresh one when every
// cached record is still protected — reusing its applied vector and
// response rows, and its state buffers too under WithCloneInto.
func (t *psimThread[S, A, R]) Build(active xatomic.Snapshot) {
	u := t.u
	ns, fresh := u.pool.Get(t.blk)
	u.stats.Recycled(t.i, fresh, t.blk.Cached(), 0)
	ns.applied.CopyFrom(active)
	if u.n > 1 { // at n == 1 the rows are left alone (see Serve)
		ns.res.Forward(&t.ls.res)
	}
	if u.cloneInto != nil {
		u.cloneInto(&ns.st, &t.ls.st)
	} else {
		ns.st = t.ls.st
	}
	t.ns, t.base = ns, len(t.res)
}

// Serve is Round.Serve: apply process k's vector (line 18, once per
// operation) and record its response row.
func (t *psimThread[S, A, R]) Serve(k int) (uint64, bool) {
	u := t.u
	vec := t.chunk
	if k != t.i {
		// line 17: discover k's vector, hazard-protected so k's box pool
		// cannot rewrite it under us (collect/batch.go).
		b, ok := u.announce.Protect(t.i, k)
		if !ok {
			return 0, false
		}
		vec = b.Vec()
	}
	if u.n == 1 { // no round reads the rows at n == 1: answer directly
		for _, a := range vec {
			t.res = append(t.res, u.apply(&t.ns.st, k, a))
		}
		return uint64(len(vec)), true
	}
	row := t.ns.res.Buf(k)
	for _, a := range vec {
		row = append(row, u.apply(&t.ns.st, k, a))
	}
	t.ns.res.Serve(k, row)
	return uint64(len(vec)), true
}

// Seal is Round.Seal: copy the caller's row out of the successor.
func (t *psimThread[S, A, R]) Seal() {
	if t.u.n > 1 {
		t.res = append(t.res, t.ns.res.Row(t.i)...)
	}
}

// Publish is Round.Publish: the CAS on the pointer plays the role of the
// CAS on the timestamped pool index, and retiring the replaced record to
// the memory plane is line 26's pool rotation.
func (t *psimThread[S, A, R]) Publish() bool {
	u := t.u
	if u.n == 1 {
		u.state.Store(t.ns) // sole writer: plain atomic publish
	} else {
		u.announce.Clear(t.i) // done reading other processes' boxes
		if !u.state.CompareAndSwap(t.ls, t.ns) {
			return false
		}
		u.haz.Clear(t.i) // unpin ls before retiring it
	}
	u.pool.Put(t.blk, t.ls)
	return true
}

// Discard is Round.Discard: a never-published record is immediately
// reusable.
func (t *psimThread[S, A, R]) Discard() {
	t.u.announce.Clear(t.i)
	t.u.pool.Put(t.blk, t.ns)
	t.res = t.res[:t.base]
}

// Fallback is Round.Fallback: an unbounded protected load, then Done.
func (t *psimThread[S, A, R]) Fallback() {
	t.ls, _ = t.u.haz.Acquire(t.i, &t.u.state, 0)
	t.Done()
}

// Read returns a snapshot of the current simulated state without announcing
// an operation. It may be called from any goroutine. The record is protected
// by a claimable hazard slot while the snapshot is taken, and the snapshot
// is produced with the instance's WithCloneInto copy, run into a zero S, so
// it shares no buffers that record recycling would later rewrite. Under the
// default shallow copy the returned value may alias the live state and must
// be treated as immutable (the same condition under which the shallow copy
// is correct at all).
// Lock-free: a Read retries only when a concurrent Apply publishes.
func (u *PSim[S, A, R]) Read() S {
	ls, slot := u.haz.AcquireAnon(&u.state)
	if u.cloneInto != nil {
		// Only this branch's s escapes (its address goes to cloneInto), so
		// the shallow-copy path below returns without a heap allocation.
		var s S
		u.cloneInto(&s, &ls.st)
		u.haz.ReleaseAnon(slot)
		return s
	}
	s := ls.st
	u.haz.ReleaseAnon(slot)
	return s
}

// ReadFunc runs f on the current simulated state without announcing an
// operation or copying the state: the record stays protected by the same
// claimable hazard slot Read takes until f returns, so no recycler rewrites
// it meanwhile. f must treat the state as immutable and must not retain the
// pointer or anything reachable only through a buffer the record owns.
// What it takes out of such a buffer may outlive f only if the state never
// rewrites it: simmap's Get copies its key's entry out of the stripe root's
// recycled array here and walks the trie nodes below, immutable once
// published, after f returns. It is the read path for a state that keeps
// buffers in its record (WithCloneInto) when Read's full copy would cost
// more than the read. Lock-free, like Read.
func (u *PSim[S, A, R]) ReadFunc(f func(*S)) {
	ls, slot := u.haz.AcquireAnon(&u.state)
	f(&ls.st)
	u.haz.ReleaseAnon(slot)
}

// Stats returns aggregated combining statistics (Figure 2 right: the average
// degree of helping is Stats().AvgHelping).
func (u *PSim[S, A, R]) Stats() Stats { return u.stats.Aggregate() }
