// Package herlihy implements Herlihy's classic wait-free universal
// construction ("Wait-free synchronization", TOPLAS 1991 — the first row of
// the paper's Table 1), as the reference point for the shared-memory-access
// comparison in the Table 1 experiment.
//
// Operations are threaded onto a linked history of cells; the successor of
// each cell is decided by consensus, here realised with a single CAS on the
// cell's next pointer (CAS has infinite consensus number). Wait-freedom
// comes from round-robin helping: after a cell with sequence number s is
// threaded, every process first tries to thread the announced operation of
// process (s+1) mod n before its own, so an announced operation is threaded
// after at most n rounds. Each cell carries the full object state after its
// operation (the state copying that gives the construction its O(n³·s)
// shared-access bill in Table 1; its always-on access counter measures a
// per-operation cost linear in n where Sim's is flat).
package herlihy

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pad"
)

// Universal is a Herlihy universal object for n processes.
type Universal[S, A, R any] struct {
	n     int
	apply func(st S, pid int, arg A) (S, R)

	announce []pad.Pointer[cell[S, A, R]]
	head     []pad.Pointer[cell[S, A, R]]

	accesses *obs.Counter // shared-memory accesses (Table 1), by process
}

// cell is one history node. next is the consensus object deciding the
// successor (decided at most once, by CAS from nil); done publishes the
// deterministic result of threading the cell (every helper computes the same
// values, the first CAS wins, the rest read).
type cell[S, A, R any] struct {
	pid  int
	arg  A
	next atomic.Pointer[cell[S, A, R]]
	done atomic.Pointer[threaded[S, R]]
}

type threaded[S, R any] struct {
	seq   uint64
	state S
	rv    R
}

// New returns a universal object with initial state init and sequential
// transition apply (pure: must return a fresh state, not mutate its input).
func New[S, A, R any](n int, init S, apply func(st S, pid int, arg A) (S, R)) *Universal[S, A, R] {
	u := &Universal[S, A, R]{
		n:        n,
		apply:    apply,
		announce: make([]pad.Pointer[cell[S, A, R]], n),
		head:     make([]pad.Pointer[cell[S, A, R]], n),
		accesses: obs.NewCounter(n),
	}
	root := &cell[S, A, R]{pid: -1}
	root.done.Store(&threaded[S, R]{seq: 0, state: init})
	for i := range u.head {
		u.head[i].P.Store(root)
	}
	return u
}

// SharedAccesses returns the shared-memory accesses performed so far by
// every process (the Table 1 count). Safe concurrently with Apply.
func (u *Universal[S, A, R]) SharedAccesses() uint64 { return u.accesses.Total() }

// N returns the number of processes.
func (u *Universal[S, A, R]) N() int { return u.n }

// Apply announces arg for process i, helps thread announced cells until its
// own is threaded, and returns its response.
func (u *Universal[S, A, R]) Apply(i int, arg A) R {
	mine := &cell[S, A, R]{pid: i, arg: arg}
	u.announce[i].P.Store(mine)
	u.accesses.Inc(i)

	for mine.done.Load() == nil {
		u.accesses.Inc(i) // the done check reads shared memory
		cur := u.head[i].P.Load()
		u.accesses.Inc(i)
		curDone := cur.done.Load()
		u.accesses.Inc(i)

		// Round-robin helping: prefer the process whose turn it is.
		turn := int((curDone.seq + 1) % uint64(u.n))
		pref := u.announce[turn].P.Load()
		u.accesses.Inc(i)
		if pref == nil || pref.done.Load() != nil {
			pref = mine
		}

		// Consensus on cur's successor.
		cur.next.CompareAndSwap(nil, pref)
		u.accesses.Inc(i)
		next := cur.next.Load()
		u.accesses.Inc(i)

		// Thread the winner: compute its deterministic result and publish.
		ns, rv := u.apply(curDone.state, next.pid, next.arg)
		next.done.CompareAndSwap(nil, &threaded[S, R]{
			seq:   curDone.seq + 1,
			state: ns,
			rv:    rv,
		})
		u.accesses.Inc(i)
		u.head[i].P.Store(next)
		u.accesses.Inc(i)
	}
	return mine.done.Load().rv
}

// Read returns the newest committed state reachable from process i's head:
// it follows the history chain to its threaded end (a quiescent read sees
// the final state; a concurrent read sees some recently committed state).
func (u *Universal[S, A, R]) Read(i int) S {
	cur := u.head[i].P.Load()
	for {
		next := cur.next.Load()
		if next == nil || next.done.Load() == nil {
			return cur.done.Load().state
		}
		cur = next
	}
}
