package spool

// View is an immutable snapshot of the log, produced by Spool.Snapshot via
// PSim.Read. Sealed segments are shared with the live state (they are
// frozen); the active segment is a private deep copy made by the read-side
// clone. A View therefore stays valid forever, costs no coordination with
// writers, and supports any number of concurrent consumers — the query
// layers of the ingest pipeline and the telemetry timeline are built
// entirely on it.
type View[E Entry] struct {
	st state[E]
}

// LowWater returns the oldest retained offset: everything below it has been
// expired by retention (or the sealed-ring bound). Offsets start at 0 and
// are contiguous, so it is also the number of entries expired so far.
func (v View[E]) LowWater() uint64 { return v.st.lwm }

// End returns the offset one past the newest entry (the next to be
// assigned). The retained range is the single interval [LowWater, End).
func (v View[E]) End() uint64 { return v.st.next }

// Len returns the number of retained entries.
func (v View[E]) Len() int { return int(v.st.next - v.st.lwm) }

// Segments returns the number of sealed segments in the ring.
func (v View[E]) Segments() int { return len(v.st.sealed) }

// SealedTotal returns the number of segments sealed since the spool was
// created (a monotone counter, unlike Segments which the ring bounds).
func (v View[E]) SealedTotal() uint64 { return v.st.sealedTotal }

// Read copies up to max entries starting at offset cursor into out
// (appending; pass out[:0] to reuse a buffer) and returns the filled slice,
// the cursor to resume from, and the number of entries skipped because
// retention expired them before the consumer arrived (cursor below the low
// watermark). next is always ≥ cursor, and next - cursor == skipped +
// len(returned): a consumer that tracks its cursor observes every retained
// entry exactly once, in offset order, with gaps accounted rather than
// silent.
func (v View[E]) Read(cursor uint64, max int, out []E) (evs []E, next uint64, skipped uint64) {
	return readState(&v.st, cursor, max, out)
}

// readState is View.Read over a state the caller keeps stable: a snapshot's
// clone, or the live record under PSim.ReadFunc (Spool.Read).
func readState[E Entry](st *state[E], cursor uint64, max int, out []E) (evs []E, next uint64, skipped uint64) {
	start := cursor
	if start < st.lwm {
		skipped = st.lwm - start
		start = st.lwm
	}
	next = start
	if max <= 0 || start >= st.next {
		return out, next, skipped
	}
	// Sealed segments: skip those wholly below start, then copy.
	for _, seg := range st.sealed {
		if seg.End() <= next {
			continue
		}
		out, next = copyFrom(out, max, seg.Base, seg.Entries, next)
		if len(out) >= max {
			return out, next, skipped
		}
	}
	if len(st.active.Entries) > 0 {
		out, next = copyFrom(out, max, st.active.Base, st.active.Entries, next)
	}
	return out, next, skipped
}

// copyFrom appends entries of one segment starting at offset next, stopping
// at max total entries.
func copyFrom[E Entry](out []E, max int, base uint64, entries []E, next uint64) ([]E, uint64) {
	if next > base {
		entries = entries[next-base:]
	}
	room := max - len(out)
	if room < len(entries) {
		entries = entries[:room]
	}
	out = append(out, entries...)
	return out, next + uint64(len(entries))
}
