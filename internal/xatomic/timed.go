package xatomic

import "sync/atomic"

// The practical P-Sim (§4, Algorithm 2) replaces the LL/SC object with a CAS
// on a "TimedPoolIndex": a 16-bit index into the pool of State structs plus
// a 48-bit timestamp that makes ABA on the index impossible for 2^48
// successful updates. TimedWord is that word.
//
// Wrap bound, precisely: a stale CAS can only succeed if the packed 64-bit
// word RECURS — same index AND same stamp. Stamps increment once per
// successful update and wrap silently at 2^48, so the word a thread read
// can recur no earlier than 2^48 successful updates later; the emulation is
// sound iff no thread stalls between its LoadRaw and its CompareAndSwap
// across that many updates. At a (generous) 10^8 successful combining
// rounds per second that is a single operation stalled for ~32 days; the
// paper's 48-bit argument is this bound. TestTimedWordStampWrapVersionReuse
// pins its sharpness: advancing the stamp by exactly 2^48 reproduces the
// identical word and reopens the ABA window, one update fewer does not.
//
// The bound is an assumption, not an invariant — "LL/SC and Atomic Copy"
// (arXiv 1911.09671) shows how to make LL/SC unconditionally sound from
// pointer-width CAS by protecting the target against reuse instead of
// stamping it. internal/core's hazard-guarded recycling (and internal/lsim's
// per-item variant) is that construction: a protected record is never
// recycled, so its pointer can never recur while observed, and no stamp is
// needed. TimedWord remains the paper-exact word, P of the pooled P-Sim
// (core.PSimWords), and its bound stays the paper's assumption.

const (
	timedIndexBits = 16
	timedIndexMask = (1 << timedIndexBits) - 1
	// TimedStampMax is the largest representable timestamp (48 bits).
	TimedStampMax = (1 << (64 - timedIndexBits)) - 1
	// TimedIndexMax is the largest representable pool index (16 bits).
	TimedIndexMax = timedIndexMask
)

// PackTimed packs a 16-bit pool index and a 48-bit timestamp into one word.
// Bits [0,16) hold the index, bits [16,64) the stamp; the stamp wraps
// silently at 2^48 (over 10^14 operations — unreachable in practice, as the
// paper argues for its 48-bit stamps).
func PackTimed(index uint16, stamp uint64) uint64 {
	return uint64(index) | (stamp << timedIndexBits)
}

// UnpackTimed splits a packed word into its index and stamp.
func UnpackTimed(w uint64) (index uint16, stamp uint64) {
	return uint16(w & timedIndexMask), w >> timedIndexBits
}

// TimedWord is an atomic word holding a (pool index, timestamp) pair.
// The zero value holds index 0, stamp 0.
type TimedWord struct {
	w atomic.Uint64
}

// Load returns the current index and stamp.
func (t *TimedWord) Load() (index uint16, stamp uint64) {
	return UnpackTimed(t.w.Load())
}

// LoadRaw returns the packed word, for use as the expected value of a CAS.
func (t *TimedWord) LoadRaw() uint64 { return t.w.Load() }

// Store sets the index and stamp unconditionally (initialization only).
func (t *TimedWord) Store(index uint16, stamp uint64) {
	t.w.Store(PackTimed(index, stamp))
}

// CompareAndSwap installs (index, stamp) iff the word still equals oldRaw.
func (t *TimedWord) CompareAndSwap(oldRaw uint64, index uint16, stamp uint64) bool {
	return t.w.CompareAndSwap(oldRaw, PackTimed(index, stamp))
}
