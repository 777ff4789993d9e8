// Package fmul implements the synthetic object of Figure 2: a
// Fetch&Multiply instruction (multiply the shared word by a factor, return
// the previous value — an operation no hardware provides, so some software
// synchronization is mandatory), under every technique the paper compares:
//
//   - P-Sim (both the GC-based and the faithful pooled variant)
//   - the theoretical Sim (used for Table 1 instrumentation)
//   - CLH and MCS spin locks
//   - the simple lock-free CAS loop with exponential backoff
//   - flat combining
//   - Herlihy's universal construction (Table 1 baseline)
//
// Arithmetic is modulo 2^64.
package fmul

import (
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/combtree"
	"repro/internal/core"
	"repro/internal/flatcombining"
	"repro/internal/herlihy"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/spin"
)

// Interface is a shared Fetch&Multiply object: Apply multiplies the state by
// factor and returns the previous value. Each process id must be driven by
// one goroutine.
type Interface interface {
	Apply(id int, factor uint64) uint64
	Read() uint64
	Name() string
}

// --- P-Sim (GC-based) ---

// PSim is Fetch&Multiply over the GC-based P-Sim.
type PSim struct {
	u *core.PSim[uint64, uint64, uint64]
}

// NewPSim returns a P-Sim backed Fetch&Multiply for n processes.
func NewPSim(n int, opts ...core.PSimOption[uint64]) *PSim {
	return &PSim{u: core.NewPSim(n, uint64(1), func(st *uint64, _ int, f uint64) uint64 {
		prev := *st
		*st = prev * f
		return prev
	}, opts...)}
}

// Apply implements Interface.
func (o *PSim) Apply(id int, f uint64) uint64 { return o.u.Apply(id, f) }

// ApplyBatch multiplies by every factor of fs in order on behalf of process
// id, appending the previous values to res[:0] and returning it (see
// core.PSim.ApplyBatch): the whole vector is combined in one announce slot.
func (o *PSim) ApplyBatch(id int, fs, res []uint64) []uint64 {
	return o.u.ApplyBatch(id, fs, res)
}

// Read implements Interface.
func (o *PSim) Read() uint64 { return o.u.Read() }

// Name implements Interface.
func (o *PSim) Name() string { return "P-Sim" }

// Stats exposes combining statistics (Figure 2 right).
func (o *PSim) Stats() core.Stats { return o.u.Stats() }

// Attach connects the underlying P-Sim's instrument (see core.PSim.Attach;
// BenchmarkObsOverhead and BenchmarkTraceOverhead measure its cost). Call
// once, before any operation.
func (o *PSim) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	o.u.Attach(reg, prefix, rec, tr)
}

// --- P-Sim (pooled, faithful layout) ---

// PSimPooled is Fetch&Multiply over the pooled PSimWord (ablation:
// paper-exact pool/seqlock layout vs GC publication).
type PSimPooled struct{ u *core.PSimWord }

// NewPSimPooled returns a pooled P-Sim Fetch&Multiply for n processes.
func NewPSimPooled(n int) *PSimPooled {
	return &PSimPooled{u: core.NewPSimWord(n, 0, 1, func(st, f uint64) (uint64, uint64) {
		return st * f, st
	})}
}

// Apply implements Interface.
func (o *PSimPooled) Apply(id int, f uint64) uint64 { return o.u.Apply(id, f) }

// ApplyBatch multiplies by every factor of fs in order on behalf of process
// id, appending the previous values to res[:0] and returning it (see
// core.PSimWord.ApplyBatch).
func (o *PSimPooled) ApplyBatch(id int, fs, res []uint64) []uint64 {
	return o.u.ApplyBatch(id, fs, res)
}

// Read implements Interface.
func (o *PSimPooled) Read() uint64 { return o.u.Read() }

// Name implements Interface.
func (o *PSimPooled) Name() string { return "P-Sim(pool)" }

// Stats exposes combining statistics.
func (o *PSimPooled) Stats() core.Stats { return o.u.Stats() }

// Attach connects the underlying pooled P-Sim's instrument (see
// core.PSimWord.Attach). Call once, before any operation.
func (o *PSimPooled) Attach(reg *obs.Registry, prefix string, rec *obs.SimRecorder, tr *trace.Tracer) {
	o.u.Attach(reg, prefix, rec, tr)
}

// --- CLH / MCS spin locks ---

// CLH is Fetch&Multiply under a CLH queue lock.
type CLH struct {
	lock    *spin.CLH
	handles []*spin.CLHHandle
	_       pad.CacheLinePad
	state   uint64 // guarded by lock
}

// NewCLH returns a CLH-locked Fetch&Multiply for n processes.
func NewCLH(n int) *CLH {
	o := &CLH{lock: spin.NewCLH(), handles: make([]*spin.CLHHandle, n), state: 1}
	for i := range o.handles {
		o.handles[i] = o.lock.NewHandle()
	}
	return o
}

// Apply implements Interface.
func (o *CLH) Apply(id int, f uint64) uint64 {
	h := o.handles[id]
	h.Lock()
	prev := o.state
	o.state = prev * f
	h.Unlock()
	return prev
}

// Read implements Interface (requires quiescence for an exact value).
func (o *CLH) Read() uint64 {
	h := o.handles[0]
	h.Lock()
	v := o.state
	h.Unlock()
	return v
}

// Name implements Interface.
func (o *CLH) Name() string { return "CLH-lock" }

// MCS is Fetch&Multiply under an MCS queue lock.
type MCS struct {
	lock    *spin.MCS
	handles []*spin.MCSHandle
	_       pad.CacheLinePad
	state   uint64
}

// NewMCS returns an MCS-locked Fetch&Multiply for n processes.
func NewMCS(n int) *MCS {
	o := &MCS{lock: spin.NewMCS(), handles: make([]*spin.MCSHandle, n), state: 1}
	for i := range o.handles {
		o.handles[i] = o.lock.NewHandle()
	}
	return o
}

// Apply implements Interface.
func (o *MCS) Apply(id int, f uint64) uint64 {
	h := o.handles[id]
	h.Lock()
	prev := o.state
	o.state = prev * f
	h.Unlock()
	return prev
}

// Read implements Interface.
func (o *MCS) Read() uint64 {
	h := o.handles[0]
	h.Lock()
	v := o.state
	h.Unlock()
	return v
}

// Name implements Interface.
func (o *MCS) Name() string { return "MCS-lock" }

// --- simple lock-free CAS loop ---

// LockFree is the paper's "simple lock-free algorithm": a CAS loop on a
// single word with bounded exponential backoff.
type LockFree struct {
	state atomic.Uint64
	_     pad.CacheLinePad
	bo    []pad.Slot[*backoff.Exp]
}

// LockFreeBackoff bounds the exponential backoff window.
const LockFreeBackoff = 2048

// NewLockFree returns a lock-free Fetch&Multiply for n processes.
func NewLockFree(n int) *LockFree {
	o := &LockFree{bo: make([]pad.Slot[*backoff.Exp], n)}
	o.state.Store(1)
	for i := range o.bo {
		o.bo[i].Value = backoff.NewExp(1, LockFreeBackoff)
	}
	return o
}

// Apply implements Interface.
func (o *LockFree) Apply(id int, f uint64) uint64 {
	bo := o.bo[id].Value
	for {
		prev := o.state.Load()
		if o.state.CompareAndSwap(prev, prev*f) {
			bo.Reset()
			return prev
		}
		bo.Wait()
	}
}

// Read implements Interface.
func (o *LockFree) Read() uint64 { return o.state.Load() }

// Name implements Interface.
func (o *LockFree) Name() string { return "lock-free CAS" }

// --- flat combining ---

// FC is Fetch&Multiply under flat combining.
type FC struct {
	fc      *flatcombining.FC[uint64, uint64]
	handles []*flatcombining.Handle[uint64, uint64]
	state   uint64 // combiner-only
}

// NewFC returns a flat-combining Fetch&Multiply for n processes.
func NewFC(n, rounds, cleanupEvery int) *FC {
	o := &FC{state: 1, handles: make([]*flatcombining.Handle[uint64, uint64], n)}
	o.fc = flatcombining.New(func(_ int, f uint64) uint64 {
		prev := o.state
		o.state = prev * f
		return prev
	}, rounds, cleanupEvery)
	for i := range o.handles {
		o.handles[i] = o.fc.NewHandle(i)
	}
	return o
}

// Apply implements Interface.
func (o *FC) Apply(id int, f uint64) uint64 { return o.handles[id].Apply(f) }

// Read implements Interface: a Fetch&Multiply by 1 returns the current value
// without perturbing the state.
func (o *FC) Read() uint64 { return o.handles[0].Apply(1) }

// Name implements Interface.
func (o *FC) Name() string { return "FlatCombining" }

// Stats exposes combining statistics.
func (o *FC) Stats() flatcombining.Stats { return o.fc.Stats() }

// --- Herlihy universal construction ---

// Herlihy is Fetch&Multiply over Herlihy's universal construction.
type Herlihy struct {
	u *herlihy.Universal[uint64, uint64, uint64]
}

// NewHerlihy returns a Herlihy-construction Fetch&Multiply for n processes.
func NewHerlihy(n int) *Herlihy {
	return &Herlihy{u: herlihy.New(n, uint64(1), func(st uint64, _ int, f uint64) (uint64, uint64) {
		return st * f, st
	})}
}

// Apply implements Interface.
func (o *Herlihy) Apply(id int, f uint64) uint64 { return o.u.Apply(id, f) }

// Read implements Interface.
func (o *Herlihy) Read() uint64 { return o.u.Read(0) }

// Name implements Interface.
func (o *Herlihy) Name() string { return "Herlihy-UC" }

// --- software combining tree ---

// CombTree is Fetch&Multiply over the classic (blocking) software combining
// tree — the pre-Sim combining technique of the paper's reference [30].
type CombTree struct{ t *combtree.Tree }

// NewCombTree returns a combining-tree Fetch&Multiply for n processes.
func NewCombTree(n int) *CombTree {
	return &CombTree{t: combtree.NewFetchMultiply(n, 1)}
}

// Apply implements Interface.
func (o *CombTree) Apply(id int, f uint64) uint64 { return o.t.Apply(id, f) }

// Read implements Interface.
func (o *CombTree) Read() uint64 { return o.t.Read() }

// Name implements Interface.
func (o *CombTree) Name() string { return "CombiningTree" }
