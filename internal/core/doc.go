// Package core implements the paper's universal constructions:
//
//   - Sim (Algorithm 1): the theoretical wait-free universal construction —
//     one LL/SC object holding the simulated state plus a SimCollect object
//     for announcements; O(1) shared memory accesses when the Fetch&Add word
//     fits all announcements, ⌈nd/b⌉ otherwise.
//
//   - PSim (Algorithms 2–3): the practical variant for real machines —
//     announce array, Act bit vector toggled with one Fetch&Add, adaptive
//     backoff, and the state published through a CAS. This implementation
//     publishes immutable state records through an atomic pointer and lets
//     the garbage collector reclaim them (the idiomatic Go port; no ABA, no
//     seqlock, race-detector clean).
//
//   - PSimWords (Algorithms 2–3, faithful layout): the pooled variant with
//     the paper's exact memory discipline — a pool of n·C state records, a
//     16-bit pool index + 48-bit timestamp packed in the single CAS word,
//     and seq1/seq2 consistency stamps guarding seqlock-style state copies.
//     The state is a fixed vector of words (one word for Fetch&Multiply),
//     so every shared access is a plain atomic operation.
//
// In each an operation completes after at most two Attempt rounds
// regardless of the progress of other threads, then the fallback read of
// Algorithm 3 lines 28–30 (Theorem 3.1). Sim and PSimWords bound that read
// too, so they are wait-free; PSim's hazard-protected fallback read retries
// only when another operation publishes, so it is lock-free (see psim.go).
package core
