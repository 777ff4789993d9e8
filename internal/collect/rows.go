package collect

import (
	"math/bits"

	"repro/internal/xatomic"
)

// Rows is the response side of BatchAnnounce: the paper's per-process rvals
// array (Algorithm 2's State, Algorithm 7's State) widened to one row per
// process, so an announced vector of m operations answers through a row of m
// responses and a single operation through a row of one. A published state
// record embeds one Rows; a combining round forwards the previous record's
// rows into its private successor, serves a fresh row to every process it
// helps, and the announcing process reads its own row back from whichever
// record is current when it looks.
//
// A row of one lives in first, one dense slot per process, the paper's
// rvals array itself; only a row longer than one lives in storage of its
// own, spill. live marks the non-empty rows and long the rows in spill, so
// forwarding costs one copy of first plus O(long rows + n/64): single-op
// traffic pays one memmove of n values, as a plain rvals copy would. Rows
// are copied by content into storage the destination record owns — no two
// records share a row's backing array — so a record recycled through the
// memory plane can be rewritten without touching a published one.
type Rows[R any] struct {
	first []R
	spill [][]R
	live  xatomic.Snapshot
	long  xatomic.Snapshot
}

// NewRows returns n empty response rows.
func NewRows[R any](n int) Rows[R] {
	return Rows[R]{
		first: make([]R, n),
		spill: make([][]R, n),
		live:  xatomic.NewSnapshot(n),
		long:  xatomic.NewSnapshot(n),
	}
}

// Forward makes r's rows equal to src's: every row src holds is copied into
// r's own storage, and every stale row r still holds from an earlier use of
// its record is emptied.
func (r *Rows[R]) Forward(src *Rows[R]) {
	copy(r.first, src.first)
	live, long := r.live[:len(src.live)], r.long[:len(src.long)]
	var spilled uint64
	for w, l := range src.long {
		live[w], long[w] = src.live[w], l
		spilled |= l
	}
	if spilled != 0 {
		r.forwardLong(src)
	}
}

// forwardLong copies src's rows longer than one. It is kept out of line so
// that Forward, which every round runs, stays small enough to inline.
//
//go:noinline
func (r *Rows[R]) forwardLong(src *Rows[R]) {
	for w, l := range src.long {
		for ; l != 0; l &= l - 1 {
			k := w*xatomic.WordBits + bits.TrailingZeros64(l)
			r.spill[k] = append(r.spill[k][:0], src.spill[k]...)
		}
	}
}

// Buf returns an empty row to build process k's next responses in, backed
// by storage the record owns once a row of k's has grown past one. Append
// to it and pass the result to Serve.
func (r *Rows[R]) Buf(k int) []R {
	if cap(r.spill[k]) > 1 {
		return r.spill[k][:0]
	}
	return r.first[k : k : k+1]
}

// Serve stores row, built on Buf(k), as process k's responses for this
// round.
func (r *Rows[R]) Serve(k int, row []R) {
	switch len(row) {
	case 0:
		r.live.ClearBit(k)
		r.long.ClearBit(k)
	case 1:
		r.first[k] = row[0]
		r.live.SetBit(k)
		r.long.ClearBit(k)
	default:
		r.spill[k] = row
		r.live.SetBit(k)
		r.long.SetBit(k)
	}
}

// Row returns process k's responses: its last served row, in announce order.
// The slice is the record's own storage; copy it out before the record can
// be recycled.
func (r *Rows[R]) Row(k int) []R {
	switch {
	case r.long.Bit(k):
		return r.spill[k]
	case r.live.Bit(k):
		return r.first[k : k+1 : k+1]
	}
	return nil
}
