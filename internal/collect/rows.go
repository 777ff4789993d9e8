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
// live marks the non-empty rows, so forwarding costs O(live rows + n/64),
// not O(n): only processes that ever announced have a row to carry. Rows are
// copied by content into storage the destination record owns — no two
// records share a row's backing array — so a record recycled through the
// memory plane can be rewritten without touching a published one.
type Rows[R any] struct {
	rows [][]R
	live xatomic.Snapshot
}

// NewRows returns n empty response rows. Their first slots share one dense
// array, so single-operation traffic touches as few cache lines as one
// return value per process would; a row that grows past one response moves
// to storage of its own (the capacity limit keeps append off the
// neighbour's slot).
func NewRows[R any](n int) Rows[R] {
	first := make([]R, n)
	rows := make([][]R, n)
	for k := range rows {
		rows[k] = first[k : k : k+1]
	}
	return Rows[R]{rows: rows, live: xatomic.NewSnapshot(n)}
}

// Forward makes r's rows equal to src's: every row src holds is copied into
// r's own storage, and every stale row r still holds from an earlier use of
// its record is emptied.
func (r *Rows[R]) Forward(src *Rows[R]) {
	for w := range r.live {
		for stale := r.live[w] &^ src.live[w]; stale != 0; stale &= stale - 1 {
			k := w*xatomic.WordBits + bits.TrailingZeros64(stale)
			r.rows[k] = r.rows[k][:0]
		}
		for live := src.live[w]; live != 0; live &= live - 1 {
			k := w*xatomic.WordBits + bits.TrailingZeros64(live)
			r.rows[k] = append(r.rows[k][:0], src.rows[k]...)
		}
	}
	r.live.CopyFrom(src.live)
}

// Serve stores row as process k's responses for this round. Build row by
// appending to Row(k)[:0], so the record keeps owning the storage.
func (r *Rows[R]) Serve(k int, row []R) {
	r.rows[k] = row
	if len(row) == 0 {
		r.live.ClearBit(k)
	} else {
		r.live.SetBit(k)
	}
}

// Row returns process k's responses: its last served row, in announce order.
// The slice is the record's own storage; copy it out before the record can
// be recycled.
func (r *Rows[R]) Row(k int) []R { return r.rows[k] }
