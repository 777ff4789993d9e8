package xatomic

import "sync/atomic"

// TimedVar is the LL/SC-shaped face shared by the two (index, stamp)
// implementations: the paper-exact packed-word TimedWord (stamp-based ABA
// protection, sound up to the 2^48 wrap bound documented in timed.go) and
// the wrap-safe TimedSafe (cell-identity ABA protection per "LL/SC and
// Atomic Copy", arXiv 1911.09671, unconditionally sound).
//
// The protocol is LL/SC in miniature: LL returns the current pair plus an
// opaque tag; SC installs a new pair iff the variable has not been
// successfully written since the LL that produced the tag. Store is
// initialization-only. Load is a plain read for paths that never SC
// (fallback reads).
type TimedVar interface {
	// Load returns the current index and stamp.
	Load() (index uint16, stamp uint64)
	// LL returns the current pair and the tag for a later SC.
	LL() (index uint16, stamp uint64, tag TimedTag)
	// SC installs (index, stamp) iff no successful SC or Store intervened
	// since tag's LL. A false return means the caller lost the race.
	SC(tag TimedTag, index uint16, stamp uint64) bool
	// Store sets the pair unconditionally (initialization only).
	Store(index uint16, stamp uint64)
}

// TimedTag is the link from an LL to its SC. For TimedWord it is the packed
// word (value equality — the 2^48 argument); for TimedSafe it is the cell
// pointer (identity — immune to value recurrence).
type TimedTag struct {
	raw  uint64
	cell *timedCell
}

// LL returns the current pair and a value tag for SC.
func (t *TimedWord) LL() (index uint16, stamp uint64, tag TimedTag) {
	raw := t.w.Load()
	i, s := UnpackTimed(raw)
	return i, s, TimedTag{raw: raw}
}

// SC installs (index, stamp) iff the packed word still equals the tag's.
// This is the paper's versioned CAS: a stale tag can succeed only if the
// exact (index, stamp) word recurred — the 2^48 wrap bound.
func (t *TimedWord) SC(tag TimedTag, index uint16, stamp uint64) bool {
	return t.w.CompareAndSwap(tag.raw, PackTimed(index, stamp))
}

// timedCell is one immutable (index, stamp) version of a TimedSafe. A cell
// is written once, before publication, and never mutated — all the
// construction needs from the "destination objects" of arXiv 1911.09671.
type timedCell struct {
	idx   uint16
	stamp uint64
}

// TimedSafe is the wrap-safe TimedVar: the pair lives behind an atomic
// pointer to an immutable cell, and SC compares CELL IDENTITY, not value.
// Every successful SC installs a freshly allocated cell, so a stale tag's
// cell can never be the current one again — the garbage collector plays the
// role of the reuse guard in arXiv 1911.09671's LL/SC-from-CAS construction
// (their Theorem 1 hazard-protects destination cells; Go's GC subsumes
// that), and stamp recurrence is harmless because the stamp no longer
// carries the ABA argument. The price is one small heap allocation per
// successful update; P-Sim's publish path already allocates nothing else on
// its slow path, and NewTimedVar selects this variant only when a
// deployment's update horizon makes the 2^48 wrap reachable.
type TimedSafe struct {
	p atomic.Pointer[timedCell]
}

var timedZero = &timedCell{}

func (t *TimedSafe) cur() *timedCell {
	if c := t.p.Load(); c != nil {
		return c
	}
	return timedZero
}

// Load returns the current index and stamp.
func (t *TimedSafe) Load() (index uint16, stamp uint64) {
	c := t.cur()
	return c.idx, c.stamp
}

// LL returns the current pair and an identity tag for SC.
func (t *TimedSafe) LL() (index uint16, stamp uint64, tag TimedTag) {
	c := t.cur()
	return c.idx, c.stamp, TimedTag{cell: c}
}

// SC installs (index, stamp) iff the current cell is still the tag's cell.
// Identity comparison: even if (index, stamp) values recur — stamp wrap,
// counter reset — a superseded cell is a different object and the CAS fails.
func (t *TimedSafe) SC(tag TimedTag, index uint16, stamp uint64) bool {
	if tag.cell == nil {
		return false
	}
	next := &timedCell{idx: index, stamp: stamp}
	if tag.cell == timedZero {
		// The variable is still at its zero value: install over nil too.
		if t.p.CompareAndSwap(nil, next) {
			return true
		}
	}
	return t.p.CompareAndSwap(tag.cell, next)
}

// Store sets the pair unconditionally (initialization only).
func (t *TimedSafe) Store(index uint16, stamp uint64) {
	t.p.Store(&timedCell{idx: index, stamp: stamp})
}

// NewTimedVar picks the TimedVar implementation for a deployment expecting
// up to `horizon` successful updates over the variable's lifetime: the
// paper-exact packed word while the 2^48 stamp-wrap bound is unreachable,
// the atomic-copy cell construction once it is. Called at construction init
// (core.NewPSimWordsHorizon passes its update horizon); the choice is static per
// instance, so the hot path pays no per-operation dispatch beyond the
// interface call.
func NewTimedVar(horizon uint64) TimedVar {
	if horizon >= TimedStampMax {
		return new(TimedSafe)
	}
	return new(TimedWord)
}
