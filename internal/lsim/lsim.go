// Package lsim implements L-Sim (paper §6, Algorithms 7 and 8): the Sim
// universal construction for LARGE objects. Where Sim/P-Sim copy the whole
// simulated state each round, L-Sim operates directly on the shared data
// structure: every data item lives in its own ItemSV record holding two
// value slots, a toggle selecting the current slot, and the sequence number
// of the combining round that last wrote it. Helpers of a round execute the
// same set of operations deterministically against per-helper directories
// (write sets), then write the dirty items back with per-item SC, so a round
// costs O(kw) shared accesses — k the interval contention, w the number of
// items an operation touches — instead of O(s) for the full state.
//
// The construction is wait-free and linearizable (Theorem 6.1). Announced
// operations are executed by ALL concurrent helpers of a round, so an
// operation function must be deterministic and must access shared data only
// through its Mem parameter.
//
// # Hot-path parity with P-Sim
//
// The paper's LL/SC cells (round record and per-item ItemSV) are realized as
// atomic pointers under the hazard-pointer discipline of
// internal/core/recycle.go: LL is a protected load (store the pointer in the
// reader's slot, re-load, accept only if unchanged), VL is a pointer
// re-load, and SC is a CAS — sound against ABA because a record that might
// be re-published is never recycled while any slot protects it. Retired
// round records and item bodies go to the unified memory plane
// (internal/alloc): per-thread two-stack handles reissued through
// alloc.Typed over the instance's hazard planes, so the steady-state
// ApplyOp/ApplyBatch path allocates nothing (gated by
// TestLSimApplyAllocsSteadyState): announcements rotate through
// collect.BatchAnnounce box pools, round records and item bodies come back
// from the plane, and the per-helper directory is a reusable slice. As with
// P-Sim, recycling turns the strictly bounded LL into a lock-free protected
// load: a protection retry is paid for by another thread's successful
// publish, and a failed bounded acquire is treated exactly like a failed SC.
// Mem.Alloc is the exception to zero-allocation: it creates genuinely new
// items, which is inherent.
//
// Values are treated as immutable once handed to Write/NewRootItem/Alloc:
// an item body stores the V it was given, and recycling a retired body
// overwrites only the body's slots, never memory a previously returned V
// points to.
package lsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/xatomic"
)

// Item is one shared data item (struct ItemSV of Algorithm 7): two value
// slots plus toggle and round stamp. The body pointer is manipulated with
// the hazard-guarded LL/SC emulation described in the package comment. The
// zero value of V plays the paper's ⊥. Items belong to the instance that
// created them (NewRootItem or Mem.Alloc); their bodies recycle through
// that instance's hazard plane.
type Item[V any] struct {
	haz *core.Hazards[itemBody[V]]
	p   atomic.Pointer[itemBody[V]]
}

type itemBody[V any] struct {
	val      [2]V
	toggle   int          // index of the CURRENT slot; 1-toggle holds the old value
	seq      uint64       // round that last wrote the item
	nextFree *itemBody[V] // memory-plane chain link; unused while live
}

func newItem[V any](h *core.Hazards[itemBody[V]], init V) *Item[V] {
	b := &itemBody[V]{}
	b.val[0] = init
	it := &Item[V]{haz: h}
	it.p.Store(b)
	return it
}

// Current returns the item's committed value — for inspection outside any
// operation (tests, examples, read paths that tolerate a point read). Inside
// an operation use Mem.Read. Lock-free: the body is read under an anonymous
// hazard slot so a concurrent write-back can neither recycle it mid-read nor
// ABA the pointer.
func (it *Item[V]) Current() V {
	b, s := it.haz.AcquireAnon(&it.p)
	v := b.val[b.toggle]
	it.haz.ReleaseAnon(s)
	return v
}

// OpFunc is a sequential operation on the large object. It may read, write
// and allocate items only through m, must be deterministic (helpers replay
// it), and must not retain m beyond the call.
type OpFunc[V, A, R any] func(m *Mem[V, A, R], arg A) R

// lop is one announced operation; a batch announcement is a vector of them.
type lop[V, A, R any] struct {
	fn  OpFunc[V, A, R]
	arg A
}

// lsimState is the published round record (struct State of Algorithm 7): the
// applied/papplied double bit vector, per-process responses, the round
// number, and the shared list of items allocated during the round. Records
// recycle through the memory plane under the state hazard plane.
//
// The bit vectors are word-wide snapshots, as in P-Sim: a round copies and
// scans them 64 processes per word. res holds Algorithm 7's return values
// as one collect.Rows row per process (a single operation's is a row of
// one, in a dense column forwarded by one copy).
type lsimState[R any] struct {
	applied  xatomic.Snapshot
	papplied xatomic.Snapshot
	res      collect.Rows[R]
	seq      uint64
	varList  *newList
	nextFree *lsimState[R] // memory-plane chain link; unused while live
}

func newState[R any](n int) *lsimState[R] {
	return &lsimState[R]{
		applied:  xatomic.NewSnapshot(n),
		papplied: xatomic.NewSnapshot(n),
		res:      collect.NewRows[R](n),
		varList:  &newList{},
	}
}

// newList is the shared new-variable list; head is a dummy node so the
// first insertion is the same CAS as every other (the paper's var_list).
type newList struct {
	head newVar
}

type newVar struct {
	item any // *Item[V]; stored untyped to keep newList monomorphic
	next atomic.Pointer[newVar]
}

// anonItemSlots is the preallocated anonymous hazard-slot count of the item
// plane (Current readers with no process id); more readers overflow, they
// never wait.
const anonItemSlots = 4

// anonStateSlots serves pid-less round-record reads (Rvals/Seq helpers).
const anonStateSlots = 2

// lthread is one process's private recycling state (single-writer; padded so
// neighbouring threads' cursors do not share cache lines).
type lthread[V, A, R any] struct {
	inited bool
	blk    *alloc.Handle[lsimState[R]] // retired round records
	iblk   *alloc.Handle[itemBody[V]]  // retired item bodies
	lact   xatomic.Snapshot            // GetSet scratch
	mem    Mem[V, A, R]                // reusable directory + alloc cursor
	batch  []lop[V, A, R]              // announce-vector scratch
	one    [1]A                        // ApplyOp's batch of one
	oneRes []R                         // and its response row
	_      pad.CacheLinePad
}

// LSim is an L-Sim universal object instance.
type LSim[V, A, R any] struct {
	n int

	announce *collect.BatchAnnounce[lop[V, A, R]]
	act      *collect.ActSet
	members  []*collect.Member

	state atomic.Pointer[lsimState[R]]
	haz   *core.Hazards[lsimState[R]] // round-record hazard plane
	ihaz  *core.Hazards[itemBody[V]]  // item-body hazard plane

	// Memory plane: guarded pools for round records and item bodies (see the
	// package comment's hot-path-parity section).
	rpool *alloc.Typed[lsimState[R]]
	ipool *alloc.Typed[itemBody[V]]

	threads []lthread[V, A, R]

	stats        *core.StatsPlane
	itemsWritten *obs.Counter // committed item write-backs (write-set sizes)
}

// New returns an L-Sim instance for n processes. Items making up the
// object's initial state are created with NewRootItem before any ApplyOp.
func New[V, A, R any](n int) *LSim[V, A, R] {
	if n < 1 {
		panic("lsim: New needs n >= 1")
	}
	l := &LSim[V, A, R]{
		n:            n,
		announce:     collect.NewBatchAnnounce[lop[V, A, R]](n),
		act:          collect.NewActSet(n),
		members:      make([]*collect.Member, n),
		threads:      make([]lthread[V, A, R], n),
		stats:        core.NewStatsPlane(n),
		itemsWritten: obs.NewCounter(n),
	}
	// Overflow events tell the tables apart by their B payload: 0 = round
	// records, 1 = item bodies (as the recycling events do).
	l.haz = core.NewHazards[lsimState[R]](n, anonStateSlots, l.stats, 0)
	l.ihaz = core.NewHazards[itemBody[V]](n, anonItemSlots, l.stats, 1)
	for i := range l.members {
		l.members[i] = l.act.Member(i)
	}
	l.state.Store(newState[R](n))
	// Memory plane: round records carry cache 2(n+1) per thread; item
	// bodies a deeper cache (one round may retire up to a whole write-set of
	// bodies). Neither pool Resets at Put — a retired record or body may
	// still be hazard-protected, so it is only mutated at reissue, after the
	// guard probe clears it.
	l.rpool = alloc.NewTyped(alloc.NewPool(n, alloc.Config[lsimState[R]]{
		New:     func() *lsimState[R] { return newState[R](n) },
		Next:    func(s *lsimState[R]) *lsimState[R] { return s.nextFree },
		SetNext: func(s, nx *lsimState[R]) { s.nextFree = nx },
		Chain:   n + 1,
		Slots:   n,
	}), l.haz)
	itemChain := 2 * n
	if itemChain < 8 {
		itemChain = 8
	}
	l.ipool = alloc.NewTyped(alloc.NewPool(n, alloc.Config[itemBody[V]]{
		New:     func() *itemBody[V] { return new(itemBody[V]) },
		Next:    func(b *itemBody[V]) *itemBody[V] { return b.nextFree },
		SetNext: func(b, nx *itemBody[V]) { b.nextFree = nx },
		Chain:   itemChain,
		Slots:   n,
	}), l.ihaz)
	l.stats.AttachAllocPool("state", l.rpool.Pool())
	l.stats.AttachAllocPool("item", l.ipool.Pool())
	return l
}

// NewRootItem creates a free-standing item initialized to init. Root items
// form the object's initial structure; items allocated during operations
// come from Mem.Alloc.
func (l *LSim[V, A, R]) NewRootItem(init V) *Item[V] {
	return newItem(l.ihaz, init)
}

// Attach connects the instance's instrument (see core.StatsPlane.Attach):
// in reg under prefix, the exact hot-path counters, the memory plane, and
// <prefix>_items_written_total — the number of committed per-item
// write-backs (the sum of round write-set sizes); sampled latency and
// combining degree into rec; and into tr, committed rounds (with combining
// degree and ops applied), publish failures, recycling hits/misses on both
// the round-record and item-body pools (distinguished by the event's B
// payload: 0 = round records, 1 = item bodies), and hazard overflows. Any
// argument may be nil; the steady state stays allocation-free either way.
// Call once, before the first operation.
func (l *LSim[V, A, R]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	l.stats.Attach(reg, prefix, rec, tr)
	reg.AttachCounter(prefix+"_items_written_total", l.itemsWritten)
}

// Stats aggregates combining statistics across processes (see core.Stats;
// CASSuccesses counts committed rounds, Combined the operations they
// applied).
func (l *LSim[V, A, R]) Stats() core.Stats { return l.stats.Aggregate() }

// ItemsWritten returns the total number of committed item write-backs — the
// accumulated write-set size across all rounds.
func (l *LSim[V, A, R]) ItemsWritten() uint64 { return l.itemsWritten.Total() }

// N returns the number of processes.
func (l *LSim[V, A, R]) N() int { return l.n }

// thread lazily initializes and returns process i's recycling state; safe
// because each id is driven by one goroutine.
func (l *LSim[V, A, R]) thread(i int) *lthread[V, A, R] {
	if i < 0 || i >= l.n {
		panic(fmt.Sprintf("lsim: process id %d out of range [0,%d)", i, l.n))
	}
	t := &l.threads[i]
	if !t.inited {
		t.blk = l.rpool.Pool().Handle(i)
		t.iblk = l.ipool.Pool().Handle(i)
		t.lact = xatomic.NewSnapshot(l.n)
		t.mem.l = l
		t.mem.id = i
		t.oneRes = make([]R, 0, 1)
		t.inited = true
	}
	return t
}

// ApplyOp announces op with argument arg for process i, executes the
// join/attempt/leave protocol of Algorithm 7 (lines 1–7), and returns the
// operation's response. It is ApplyBatch of a batch of one, through a
// per-thread one-element scratch. Each process id must be driven by one
// goroutine.
func (l *LSim[V, A, R]) ApplyOp(i int, op OpFunc[V, A, R], arg A) R {
	t := l.thread(i)
	t.one[0] = arg
	t.oneRes = l.ApplyBatch(i, op, t.one[:], t.oneRes)
	return t.oneRes[0]
}

// ApplyBatch announces the vector (op, args[0]) … (op, args[len-1]) as ONE
// announcement for process i — every element is applied consecutively in the
// same combining round, mirroring P-Sim's ApplyBatch — and returns the
// per-element responses appended to res[:0] (pass a reusable buffer to keep
// the steady state allocation-free). A nil res allocates. Empty args is a
// no-op returning res[:0].
func (l *LSim[V, A, R]) ApplyBatch(i int, op OpFunc[V, A, R], args []A, res []R) []R {
	t := l.thread(i)
	if len(args) == 0 {
		return res[:0]
	}
	op0 := l.stats.Start(i)

	t.batch = t.batch[:0]
	for _, a := range args {
		t.batch = append(t.batch, lop[V, A, R]{fn: op, arg: a})
	}
	l.announce.Publish(i, t.batch) // line 1
	core.SchedYield(i, core.PointAnnounce)
	l.members[i].Join() // line 2
	t.mem.acc = 2
	won := false
	l.attempt(i, t, op0, &won) // lines 3–4
	l.attempt(i, t, op0, &won)
	l.members[i].Leave() // line 5
	t.mem.acc++
	l.attempt(i, t, op0, &won) // line 6: eliminate the evidence of op

	// line 7: read the committed responses from the current record while it
	// is hazard-protected (records recycle; an unprotected read could see a
	// rewritten row).
	ls, _ := l.haz.Acquire(i, &l.state, 0)
	res = append(res[:0], ls.res.Row(i)...)
	l.stats.Accesses.Add(i, t.mem.acc+1)

	l.opDone(i, op0, won)
	l.release(i)
	return res
}

// opDone finishes an operation's accounting: operations that never won a
// publish were served by another thread's round (a won one was closed at
// its first publish).
func (l *LSim[V, A, R]) opDone(i int, op core.Op, won bool) {
	if !won {
		l.stats.Served(i, op, 1)
	}
}

// release clears process i's hazard and announce-reader slots so a thread
// that goes quiet does not pin retired records or announce boxes.
func (l *LSim[V, A, R]) release(i int) {
	l.haz.Clear(i)
	l.ihaz.Clear(i)
	l.announce.Clear(i)
}

// errObsolete aborts an in-progress simulation when the helper discovers the
// state it read is stale (Algorithm 8 line 35's "goto line 38").
type obsoleteError struct{}

func (obsoleteError) Error() string { return "lsim: state obsolete" }

// attempt is Attempt of Algorithm 8: two rounds of
// read-state/simulate/write-back/publish, on recycled round records.
func (l *LSim[V, A, R]) attempt(i int, t *lthread[V, A, R], op core.Op, won *bool) {
	st := l.stats
	for j := 0; j < 2; j++ { // line 9
		ls, ok := l.haz.Acquire(i, &l.state, core.HazardAttempts) // line 11 (LL)
		t.mem.acc++
		if !ok {
			// HazardAttempts publishes raced the protected load; the round
			// is as doomed as a failed SC.
			st.CASFailed(i, j, 1)
			continue
		}
		core.SchedYield(i, core.PointCollect)
		l.act.GetSetInto(t.lact) // line 12
		t.mem.acc += uint64(l.act.Words())

		ns := l.record(i, t) // lines 14–18, into a recycled record
		ns.seq = ls.seq + 1
		ns.papplied.CopyFrom(ls.applied)
		ns.applied.CopyFrom(t.lact)
		actPop := uint64(t.lact.PopCount())
		ns.res.Forward(&ls.res)

		m := &t.mem
		m.reset(ns.seq, &ls.varList.head) // line 13

		// lines 19–37: simulate the announcement of every process whose
		// operation became visible last round (applied ∧ ¬papplied).
		degree, opsApplied := uint64(0), uint64(0)
		if !l.simulate(ls, ns, m, &degree, &opsApplied) {
			// Stale state detected mid-simulation: the round is abandoned,
			// as doomed as a failed SC.
			st.CASFailed(i, j, 2)
			l.rpool.Put(t.blk, ns)
			continue
		}

		t.mem.acc++
		if l.state.Load() != ls { // line 38 (VL): the state we read is obsolete
			st.CASFailed(i, j, 0)
			l.rpool.Put(t.blk, ns)
			continue
		}

		// lines 39–43: write the dirty directory entries back per-item.
		wrote, later := l.writeBack(i, t, m, ns.seq)
		if later {
			l.rpool.Put(t.blk, ns)
			return // a later round already committed everything (line 40)
		}

		core.SchedYield(i, core.PointCAS)
		if l.state.CompareAndSwap(ls, ns) { // line 45 (SC)
			l.rpool.Put(t.blk, ls) // retire the replaced record
			l.itemsWritten.Add(i, wrote)
			if !*won {
				*won = true
				st.Committed(i, op, 1, degree, actPop, opsApplied)
			} else {
				st.Round(i, degree, opsApplied)
			}
		} else {
			l.rpool.Put(t.blk, ns)
			st.CASFailed(i, j, 0)
		}
		t.mem.acc++
	}
}

// record returns a round record to build into, reissued through the guarded
// plane (never one a reader still holds). A recycled record's new-variable
// chain is dropped at reissue — not at Put, when the record may still be
// hazard-protected (its items, if any survived, are owned by the object by
// now).
func (l *LSim[V, A, R]) record(i int, t *lthread[V, A, R]) *lsimState[R] {
	ns, fresh := l.rpool.Get(t.blk)
	l.stats.Recycled(i, fresh, t.blk.Cached(), 0)
	if !fresh {
		ns.varList.head.next.Store(nil)
	}
	return ns
}

// body returns an item body for a write-back, reissued through the guarded
// plane (never one a reader still holds).
func (l *LSim[V, A, R]) body(i int, t *lthread[V, A, R]) *itemBody[V] {
	b, fresh := l.ipool.Get(t.iblk)
	l.stats.Recycled(i, fresh, t.iblk.Cached(), 1)
	return b
}

// simulate runs every eligible announced vector against m. It reports false
// when the round must be abandoned: either the state was discovered to be
// obsolete through an item stamp, or an announce-box protection failed —
// meaning that process's previous operation completed, which takes a
// successful publish after our LL, so our SC is doomed anyway.
func (l *LSim[V, A, R]) simulate(ls, ns *lsimState[R], m *Mem[V, A, R], degree, ops *uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isObsolete := r.(obsoleteError); isObsolete {
				ok = false
				return
			}
			panic(r)
		}
	}()
	// lines 19–20: every q with applied ∧ ¬papplied, a word at a time and in
	// ascending pid order, so every helper replays the same sequence.
	for w := range ls.applied {
		for pending := ls.applied[w] &^ ls.papplied[w]; pending != 0; pending &= pending - 1 {
			q := w*xatomic.WordBits + bits.TrailingZeros64(pending)
			box, okp := l.announce.Protect(m.id, q) // the vector announced by q
			m.acc++
			if !okp {
				return false
			}
			vec := box.Vec()
			row := ns.res.Buf(q)
			for k := range vec { // lines 21–37, once per announced operation
				row = append(row, vec[k].fn(m, vec[k].arg))
			}
			ns.res.Serve(q, row)
			*degree++
			*ops += uint64(len(vec))
		}
	}
	return true
}

// writeBack applies the directory's DIRTY entries to the shared items
// (lines 39–43); read-only entries need no write-back (every helper of the
// round computes the same dirty set, so helpers still converge). It returns
// the number of write-backs this helper committed, and later=true when a
// LATER round has already committed — the caller must return immediately
// (every operation of this round, including the caller's, has been applied).
func (l *LSim[V, A, R]) writeBack(i int, t *lthread[V, A, R], m *Mem[V, A, R], seq uint64) (wrote uint64, later bool) {
	for idx := range m.ents {
		d := &m.ents[idx]
		if !d.dirty {
			continue
		}
		it := d.it
		// line 39 (item LL): protected load in the fixed slot; held through
		// the SC below, which gives the CAS true LL/SC semantics (a protected
		// body is never recycled, so it cannot reappear under the pointer).
		body, _ := l.ihaz.Acquire(i, &it.p, 0)
		m.acc++
		if body.seq > seq {
			return wrote, true // line 40
		}
		if body.seq == seq {
			continue // line 41: a co-helper already wrote it
		}
		nb := l.body(i, t)
		nb.seq = seq
		if body.toggle == 0 { // line 42: preserve val[0] as the old value
			nb.val[0] = body.val[0]
			nb.val[1] = d.val
			nb.toggle = 1
		} else { // line 43
			nb.val[0] = d.val
			nb.val[1] = body.val[1]
			nb.toggle = 0
		}
		if it.p.CompareAndSwap(body, nb) { // per-item SC
			l.ipool.Put(t.iblk, body) // retire the replaced body
			wrote++
		} else {
			// A co-helper's SC won (same round) or a later round's did;
			// either way the item already carries a stamp >= seq. Reuse our
			// unpublished build.
			l.ipool.Put(t.iblk, nb)
		}
		m.acc++
	}
	return wrote, false
}

// Rvals returns the committed response of process i — the last response of
// its last served row, or the zero R before its first operation (test
// helper).
func (l *LSim[V, A, R]) Rvals(i int) R {
	ls, s := l.haz.AcquireAnon(&l.state)
	var rv R
	if row := ls.res.Row(i); len(row) > 0 {
		rv = row[len(row)-1]
	}
	l.haz.ReleaseAnon(s)
	return rv
}

// Seq returns the committed round number (test helper).
func (l *LSim[V, A, R]) Seq() uint64 {
	ls, s := l.haz.AcquireAnon(&l.state)
	seq := ls.seq
	l.haz.ReleaseAnon(s)
	return seq
}
