package stack

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// SimStack is the paper's wait-free stack (§5): P-Sim employed "to
// atomically manipulate just the top of the stack". The simulated state is
// the top pointer of an immutable linked list — pushes allocate a fresh node
// in front, pops advance the pointer — so the state copy P-Sim makes each
// round is a single pointer and combining k operations costs O(k) local
// work.
type SimStack[V any] struct {
	u *core.PSim[*node[V], stackOp[V], popResult[V]]
	// per-process scratch for batched calls: the op vector handed to
	// ApplyBatch and the result slice it fills, both reused across calls so
	// the steady-state batch path allocates nothing.
	scratch []stackScratch[V]
}

type stackScratch[V any] struct {
	ops []stackOp[V]
	res []popResult[V]
	_   pad.CacheLinePad
}

// stackOp is the announced operation descriptor: push carries a value, pop
// does not.
type stackOp[V any] struct {
	push bool
	v    V
}

// popResult carries a pop's response; push responses are ignored.
type popResult[V any] struct {
	v  V
	ok bool
}

// SimOption configures a SimStack.
type SimOption func(*simCfg)

type simCfg struct {
	boLower, boUpper int
}

// WithBackoff bounds the adaptive backoff window (upper 0 disables).
func WithBackoff(lower, upper int) SimOption {
	return func(c *simCfg) { c.boLower, c.boUpper = lower, upper }
}

// NewSimStack returns an empty wait-free stack shared by n processes.
func NewSimStack[V any](n int, opts ...SimOption) *SimStack[V] {
	cfg := simCfg{boLower: 1, boUpper: core.DefaultBackoffUpper}
	for _, o := range opts {
		o(&cfg)
	}
	apply := func(top **node[V], _ int, op stackOp[V]) popResult[V] {
		if op.push {
			*top = &node[V]{v: op.v, next: *top}
			return popResult[V]{}
		}
		t := *top
		if t == nil {
			return popResult[V]{ok: false}
		}
		*top = t.next
		return popResult[V]{v: t.v, ok: true}
	}
	return &SimStack[V]{
		u: core.NewPSim[*node[V], stackOp[V], popResult[V]](n, nil, apply,
			core.WithBackoff[*node[V]](cfg.boLower, cfg.boUpper)),
		scratch: make([]stackScratch[V], n),
	}
}

// Push pushes v on behalf of process id.
func (s *SimStack[V]) Push(id int, v V) {
	s.u.Apply(id, stackOp[V]{push: true, v: v})
}

// Pop pops on behalf of process id; ok is false if the stack was empty.
func (s *SimStack[V]) Pop(id int) (V, bool) {
	r := s.u.Apply(id, stackOp[V]{})
	return r.v, r.ok
}

// PushBatch pushes every value of vals, in order, on behalf of process id.
// The whole vector travels through one announce slot (in budget-sized
// chunks), so vals[len-1] ends up topmost of the run and no other process's
// operations interleave within a chunk.
func (s *SimStack[V]) PushBatch(id int, vals []V) {
	if len(vals) == 0 {
		return
	}
	sc := &s.scratch[id]
	sc.ops = sc.ops[:0]
	for _, v := range vals {
		sc.ops = append(sc.ops, stackOp[V]{push: true, v: v})
	}
	sc.res = s.u.ApplyBatch(id, sc.ops, sc.res)
}

// PopBatch pops up to want values on behalf of process id, appending them to
// out[:0] (pass a slice kept across calls for an allocation-free steady
// state; nil allocates) and returning it. Fewer than want values are
// returned when the stack ran empty at a chunk's linearization point;
// values appear in pop order (first popped first).
func (s *SimStack[V]) PopBatch(id int, want int, out []V) []V {
	out = out[:0]
	if want <= 0 {
		return out
	}
	sc := &s.scratch[id]
	sc.ops = sc.ops[:0]
	for i := 0; i < want; i++ {
		sc.ops = append(sc.ops, stackOp[V]{})
	}
	sc.res = s.u.ApplyBatch(id, sc.ops, sc.res)
	for _, r := range sc.res {
		if r.ok {
			out = append(out, r.v)
		}
	}
	return out
}

// Len walks the current top pointer and returns the stack size. It is a
// read-only snapshot, safe concurrently (the list is immutable).
func (s *SimStack[V]) Len() int {
	n := 0
	for t := s.u.Read(); t != nil; t = t.next {
		n++
	}
	return n
}

// Stats exposes the underlying P-Sim combining statistics.
func (s *SimStack[V]) Stats() core.Stats { return s.u.Stats() }

// Attach connects the underlying P-Sim instance's instrument (see
// core.PSim.Attach). Call once, before any operation.
func (s *SimStack[V]) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	s.u.Attach(reg, prefix, rec, tr)
}

// Name implements Interface.
func (s *SimStack[V]) Name() string { return "SimStack" }
