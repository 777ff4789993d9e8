package obs

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/pad"
)

// NumBuckets is the number of logarithmic histogram buckets. Bucket i counts
// recorded values v with bits.Len64(v) == i: bucket 0 holds exactly v = 0,
// bucket i ≥ 1 holds v in [2^(i-1), 2^i). One bucket per power of two covers
// the full uint64 range — nanosecond latencies from sub-2ns to centuries —
// with bounded relative error (a value is at most 2x its bucket's upper
// bound estimate).
const NumBuckets = 65

// histSlot is one thread's private histogram block. The trailing pad rounds
// the struct to a whole number of cache lines so consecutive slots of a
// []histSlot never share a line.
type histSlot struct {
	buckets         [NumBuckets]atomic.Uint64
	count, sum, max atomic.Uint64
	_               [pad.CacheLineSize - (NumBuckets*8+24)%pad.CacheLineSize]byte
}

// Histogram is a per-thread log-bucketed histogram: n single-writer slots,
// one per process id. Thread i must be the only writer of slot i. Record is
// a handful of uncontended load+store pairs — cheap enough for wait-free hot
// paths (the per-operation latency recorders use it).
type Histogram struct {
	slots []histSlot
}

// NewHistogram returns a histogram with n per-thread slots (rounds up to 1).
func NewHistogram(n int) *Histogram {
	if n < 1 {
		n = 1
	}
	return &Histogram{slots: make([]histSlot, n)}
}

// Record adds value v to slot id. Single-writer load+store, atomic
// visibility for readers. No-op on a nil histogram.
func (h *Histogram) Record(id int, v uint64) {
	if h == nil {
		return
	}
	s := &h.slots[id]
	b := &s.buckets[bits.Len64(v)]
	b.Store(b.Load() + 1)
	s.count.Store(s.count.Load() + 1)
	s.sum.Store(s.sum.Load() + v)
	if v > s.max.Load() {
		s.max.Store(v)
	}
}

// Slots returns the number of per-thread slots.
func (h *Histogram) Slots() int {
	if h == nil {
		return 0
	}
	return len(h.slots)
}

// Snapshot aggregates all slots with atomic loads. Safe concurrently with
// writers; each per-slot value is exact, the cross-slot cut is not atomic.
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	if h == nil {
		return out
	}
	for i := range h.slots {
		s := &h.slots[i]
		for b := 0; b < NumBuckets; b++ {
			out.Buckets[b] += s.buckets[b].Load()
		}
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		if m := s.max.Load(); m > out.Max {
			out.Max = m
		}
	}
	return out
}

// HistSnapshot is an aggregated point-in-time view of a Histogram. The zero
// value is an empty snapshot; Sub turns two snapshots into an interval.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
}

// Sub subtracts an earlier snapshot of the same histogram, leaving the
// samples recorded in between (the delta view). A histogram is never reset,
// so a snapshot taken later is never smaller; fields still clamp at 0, so
// snapshots passed out of order cannot produce wrapped counts. Max stays
// the lifetime max — per-interval maxima are not recoverable from bucket
// deltas.
func (s *HistSnapshot) Sub(earlier HistSnapshot) {
	s.Count = subClamp(s.Count, earlier.Count)
	s.Sum = subClamp(s.Sum, earlier.Sum)
	for i := range s.Buckets {
		s.Buckets[i] = subClamp(s.Buckets[i], earlier.Buckets[i])
	}
}

func subClamp(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Mean returns the mean recorded value, or 0 for an empty snapshot.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// BucketUpper returns the largest value bucket i can hold (its inclusive
// upper bound): 0 for bucket 0, 2^i - 1 for i ≥ 1.
func BucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q ≤ 1):
// the upper bound of the bucket containing the ⌈q·Count⌉-th smallest sample,
// clamped to the observed Max. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= rank {
			u := BucketUpper(i)
			if s.Max > 0 && u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}
