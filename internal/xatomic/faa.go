// Package xatomic provides the shared-memory primitives the Sim universal
// construction is built from: Fetch&Add with "returns the previous value"
// semantics (the paper's F&A), a linked-load/store-conditional (LL/SC)
// object simulated over CAS exactly the way the paper ports it to x86-64
// (§4), timestamped pool indices, and multi-word bit vectors manipulated
// with Fetch&Add-based bit toggling (Algorithm 2's Act vector).
//
// Everything here is wait-free and allocation-free on the hot path except
// LLSC.SC, which allocates one cell per attempt (the GC-based reclamation
// noted in DESIGN.md).
package xatomic

import "sync/atomic"

// FetchAdd64 atomically adds delta to *addr and returns the PREVIOUS value,
// matching the paper's FA(R, x) semantics (Go's atomic.AddUint64 returns the
// new value).
func FetchAdd64(addr *atomic.Uint64, delta uint64) uint64 {
	return addr.Add(delta) - delta
}
