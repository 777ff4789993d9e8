// Allocation-regression tests for the zero-allocation hot path: after a
// warm-up phase that fills the per-thread recycling rings and free-lists,
// the P-Sim constructions must run without steady-state heap allocation.
// The announce box — formerly one allocation per operation at n > 1 — is
// gone: announce slots recycle owner-pooled vector boxes (collect.
// BatchAnnounce), so Apply and ApplyBatch both pin at 0 allocs/op. The only
// remaining per-operation source is the linked-list node the stack
// allocates per pushed element. The queue recycles its consumed nodes
// through the memory plane (directly at n = 1, under the era rule at
// n > 1), so its pairs, single and batched, are allocation-free too.
//
// testing.AllocsPerRun is single-goroutine, so the n=4 cases drive the ids
// round-robin from one goroutine — every Apply still takes the full
// announce/toggle/combine/CAS path, only without CAS contention. A separate
// concurrent check bounds the amortized rate under real contention.
package simuc_test

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fmul"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/stack"
)

// steadyAllocs warms the structure up, then measures allocations per op.
func steadyAllocs(warmup int, op func()) float64 {
	for i := 0; i < warmup; i++ {
		op()
	}
	return testing.AllocsPerRun(200, op)
}

func TestApplyAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}

	t.Run("PSim/n=1", func(t *testing.T) {
		u := core.NewPSim(1, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
			old := *st
			*st += d
			return old
		})
		got := steadyAllocs(256, func() { u.Apply(0, 1) })
		if got != 0 {
			t.Errorf("PSim n=1 allocs/op = %v, want 0", got)
		}
	})

	t.Run("PSim/n=4", func(t *testing.T) {
		u := core.NewPSim(4, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
			old := *st
			*st += d
			return old
		})
		id := 0
		got := steadyAllocs(256, func() {
			u.Apply(id, 1)
			id = (id + 1) % 4
		})
		if got != 0 {
			t.Errorf("PSim n=4 allocs/op = %v, want 0 (announce boxes recycle)", got)
		}
	})

	t.Run("PSimPooled/n=1", func(t *testing.T) {
		u := fmul.NewPSimPooled(1)
		got := steadyAllocs(256, func() { u.Apply(0, 3) })
		if got != 0 {
			t.Errorf("PSimPooled n=1 allocs/op = %v, want 0", got)
		}
	})

	t.Run("PSimPooled/Read", func(t *testing.T) {
		u := fmul.NewPSimPooled(4)
		u.Apply(1, 3)
		got := steadyAllocs(256, func() { u.Read() })
		if got != 0 {
			t.Errorf("PSimPooled Read allocs/op = %v, want 0 (bounded scratch front)", got)
		}
	})

	t.Run("PSimPooled/n=4", func(t *testing.T) {
		u := fmul.NewPSimPooled(4)
		id := 0
		got := steadyAllocs(256, func() {
			u.Apply(id, 3)
			id = (id + 1) % 4
		})
		if got != 0 {
			t.Errorf("PSimPooled n=4 allocs/op = %v, want 0 (word-register announce)", got)
		}
	})

	t.Run("SimQueue/n=1", func(t *testing.T) {
		q := queue.NewSimQueue[uint64](1)
		var i uint64
		got := steadyAllocs(256, func() {
			q.Enqueue(0, i)
			q.Dequeue(0)
			i++
		})
		if got != 0 {
			t.Errorf("SimQueue n=1 allocs per enq+deq pair = %v, want 0", got)
		}
	})

	t.Run("SimQueue/n=4", func(t *testing.T) {
		q := queue.NewSimQueue[uint64](4)
		id := 0
		var i uint64
		got := steadyAllocs(256, func() {
			q.Enqueue(id, i)
			q.Dequeue(id)
			id = (id + 1) % 4
			i++
		})
		if got > 0.1 {
			t.Errorf("SimQueue n=4 allocs per enq+deq pair = %v, want <= 0.1 (consumed nodes recycle)", got)
		}
	})

	t.Run("SimStack/n=1", func(t *testing.T) {
		s := stack.NewSimStack[uint64](1)
		var i uint64
		got := steadyAllocs(256, func() {
			s.Push(0, i)
			s.Pop(0)
			i++
		})
		if got > 1 {
			t.Errorf("SimStack n=1 allocs per push+pop pair = %v, want <= 1 (pushed node)", got)
		}
	})

	t.Run("SimStack/n=4", func(t *testing.T) {
		s := stack.NewSimStack[uint64](4)
		id := 0
		var i uint64
		got := steadyAllocs(256, func() {
			s.Push(id, i)
			s.Pop(id)
			id = (id + 1) % 4
			i++
		})
		if got > 1 {
			t.Errorf("SimStack n=4 allocs per push+pop pair = %v, want <= 1 (pushed node)", got)
		}
	})
}

// TestApplyAllocsBatch pins the batched entry points: ApplyBatch combines a
// whole op-vector per announce slot and must not allocate at all in steady
// state — neither on the n=1 solo path (chain recycling) nor round-robin at
// n=4 (results live in the published record's response rows, the caller's res
// buffer is reused, boxes recycle). The queue's batched pair is 0 at n=1
// and at most 0.1 allocations per element at n=4 (consumed nodes recycle);
// the stack pays its usual node per pushed element.
func TestApplyAllocsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const b = 8
	args := make([]uint64, b)
	res := make([]uint64, 0, b)
	out := make([]uint64, 0, b)
	add := func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	}

	t.Run("PSim/n=1", func(t *testing.T) {
		u := core.NewPSim(1, uint64(0), add)
		got := steadyAllocs(256, func() { res = u.ApplyBatch(0, args, res[:0]) })
		if got != 0 {
			t.Errorf("PSim n=1 allocs per %d-op batch = %v, want 0", b, got)
		}
	})

	t.Run("PSim/n=4", func(t *testing.T) {
		u := core.NewPSim(4, uint64(0), add)
		id := 0
		got := steadyAllocs(256, func() {
			res = u.ApplyBatch(id, args, res[:0])
			id = (id + 1) % 4
		})
		if got != 0 {
			t.Errorf("PSim n=4 allocs per %d-op batch = %v, want 0", b, got)
		}
	})

	t.Run("PSimPooled/n=4", func(t *testing.T) {
		u := fmul.NewPSimPooled(4)
		wargs := []uint64{3, 3, 3, 3} // WordBatchBudget caps vectors at 8
		id := 0
		got := steadyAllocs(256, func() {
			res = u.ApplyBatch(id, wargs, res[:0])
			id = (id + 1) % 4
		})
		if got != 0 {
			t.Errorf("PSimPooled n=4 allocs per 4-op batch = %v, want 0", got)
		}
	})

	t.Run("SimQueue/n=1", func(t *testing.T) {
		q := queue.NewSimQueue[uint64](1)
		got := steadyAllocs(256, func() {
			q.EnqueueBatch(0, args)
			out = q.DequeueBatch(0, b, out[:0])
		})
		if got != 0 {
			t.Errorf("SimQueue n=1 allocs per %d-element batch pair = %v, want 0 (chain recycling)", b, got)
		}
	})

	t.Run("SimQueue/n=4", func(t *testing.T) {
		q := queue.NewSimQueue[uint64](4)
		id := 0
		got := steadyAllocs(256, func() {
			q.EnqueueBatch(id, args)
			out = q.DequeueBatch(id, b, out[:0])
			id = (id + 1) % 4
		})
		if got > 0.1*b {
			t.Errorf("SimQueue n=4 allocs per %d-element batch pair = %v, want <= %v (consumed nodes recycle)", b, got, 0.1*b)
		}
	})

	t.Run("SimStack/n=4", func(t *testing.T) {
		s := stack.NewSimStack[uint64](4)
		id := 0
		got := steadyAllocs(256, func() {
			s.PushBatch(id, args)
			out = s.PopBatch(id, b, out[:0])
			id = (id + 1) % 4
		})
		if got > b {
			t.Errorf("SimStack n=4 allocs per %d-element batch pair = %v, want <= %d (one node per element)", b, got, b)
		}
	})
}

// TestApplyAllocsContendedQueue pins SimQueue's contended construction
// (n > 1: announce, toggle, combine, CAS) at ≤ 0.1 allocations per element:
// consumed nodes pass the era rule one retire later and flow back to the
// enqueuers through the node pool's shared slots, so enqueues stop paying
// a fresh node each.
func TestApplyAllocsContendedQueue(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const b = 8
	args := make([]uint64, b)
	out := make([]uint64, 0, b)
	for _, n := range []int{2, 8} {
		t.Run("pair/n="+strconv.Itoa(n), func(t *testing.T) {
			q := queue.NewSimQueue[uint64](n)
			id := 0
			var i uint64
			got := steadyAllocs(1024, func() {
				q.Enqueue(id, i)
				q.Dequeue(id)
				id = (id + 1) % n
				i++
			})
			t.Logf("n=%d: %v allocs per pair", n, got)
			if got > 0.1 {
				t.Errorf("n=%d allocs per enq+deq pair = %v, want <= 0.1", n, got)
			}
		})
		t.Run("batch/n="+strconv.Itoa(n), func(t *testing.T) {
			q := queue.NewSimQueue[uint64](n)
			id := 0
			got := steadyAllocs(1024, func() {
				q.EnqueueBatch(id, args)
				out = q.DequeueBatch(id, b, out[:0])
				id = (id + 1) % n
			}) / b
			t.Logf("n=%d: %v allocs per element", n, got)
			if got > 0.1 {
				t.Errorf("n=%d allocs per element of a %d-element batch pair = %v, want <= 0.1", n, b, got)
			}
		})
	}
}

// TestApplyAllocsContended bounds the amortized allocation rate under real
// CAS contention, where losing rounds rebuild records and every thread's
// ring must absorb the churn. The bound is looser than the sequential one
// only by the goroutine-scheduling noise MemStats cannot exclude.
func TestApplyAllocsContended(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const n, per = 4, 50_000
	u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	run := func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					u.Apply(id, 1)
				}
			}(i)
		}
		wg.Wait()
	}
	run() // warm-up: fill rings, grow goroutine stacks
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	run()
	runtime.ReadMemStats(&ms)
	got := float64(ms.Mallocs-m0) / float64(n*per)
	if got > 2 {
		t.Errorf("PSim n=%d contended allocs/op = %v, want <= 2 amortized", n, got)
	}
}

// TestApplyAllocsContendedBatch is the contended bound for the batched
// entry point: 4 threads ApplyBatch 16-op vectors against each other.
// Per LOGICAL op the rate must round to zero — batching amortizes even the
// record churn of lost CAS races across the whole vector.
func TestApplyAllocsContendedBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	const n, calls, b = 4, 3_000, 16
	u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	run := func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				args := make([]uint64, b)
				res := make([]uint64, 0, b)
				for k := 0; k < calls; k++ {
					res = u.ApplyBatch(id, args, res[:0])
				}
			}(i)
		}
		wg.Wait()
	}
	run() // warm-up: fill rings, grow goroutine stacks
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	run()
	runtime.ReadMemStats(&ms)
	got := float64(ms.Mallocs-m0) / float64(n*calls*b)
	if got > 0.25 {
		t.Errorf("PSim n=%d contended batched allocs per logical op = %v, want <= 0.25 amortized", n, got)
	}
}

// map16k builds kv-store's map shape: 16384 string keys bound over 16
// stripes, driven by one process.
func map16k() (*simmap.Map[string, uint64], []string) {
	const keys, stripes = 16384, 16
	m := simmap.New[string, uint64](1, stripes)
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = "key:" + strconv.Itoa(i)
		m.Put(0, ks[i], uint64(i))
	}
	return m, ks
}

// TestMapPutAllocsBounded: an overwriting Put copies one trie node per
// level on its key's path, so its allocations stay a handful however many
// keys the stripe holds. A copy of every entry in front of the key would
// cost hundreds at this size (~1024 keys per stripe).
func TestMapPutAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on its own; bounds only hold without it")
	}
	m, ks := map16k()
	i := 0
	got := steadyAllocs(256, func() {
		m.Put(0, ks[(i*7919)%len(ks)], uint64(i))
		i++
	})
	if got > 8 {
		t.Errorf("overwriting Put allocs/op = %v, want <= 8 (path copy, not prefix copy)", got)
	}
	t.Logf("overwriting Put at 16384 keys / 16 stripes: %v allocs/op", got)
}
