// Edge-case tests for the batched entry points, written to run under the
// race detector: empty vectors, vectors larger than the combining budget
// (forcing the chunking paths), batched producers racing batched consumers,
// and multi-key reads spanning stripes.
package simuc_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/stack"
)

// TestBatchEmpty pins the degenerate vectors: every batched entry point
// must treat a zero-length batch as a no-op — no announce, no round, no
// state change.
func TestBatchEmpty(t *testing.T) {
	u := core.NewPSim(2, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	if res := u.ApplyBatch(0, nil, nil); len(res) != 0 {
		t.Errorf("ApplyBatch(nil) returned %d results, want 0", len(res))
	}
	u.Apply(0, 7)
	if res := u.ApplyBatch(1, []uint64{}, nil); len(res) != 0 {
		t.Errorf("ApplyBatch(empty) returned %d results, want 0", len(res))
	}
	if got := u.Read(); got != 7 {
		t.Errorf("state after empty batches = %d, want 7", got)
	}

	w := core.NewPSimWords(2, 0, []uint64{1}, nil) // an empty batch never applies
	if res := w.ApplyBatch(0, nil, nil); len(res) != 0 {
		t.Errorf("PSimWords.ApplyBatch(nil) returned %d results, want 0", len(res))
	}

	q := queue.NewSimQueue[uint64](2)
	q.EnqueueBatch(0, nil)
	if out := q.DequeueBatch(0, 0, nil); len(out) != 0 {
		t.Errorf("DequeueBatch(want=0) returned %d values, want 0", len(out))
	}
	if _, ok := q.Dequeue(0); ok {
		t.Error("queue non-empty after empty EnqueueBatch")
	}

	s := stack.NewSimStack[uint64](2)
	s.PushBatch(0, nil)
	if out := s.PopBatch(0, 0, nil); len(out) != 0 {
		t.Errorf("PopBatch(want=0) returned %d values, want 0", len(out))
	}
	if _, ok := s.Pop(0); ok {
		t.Error("stack non-empty after empty PushBatch")
	}

	m := simmap.New[uint64, uint64](2, 8)
	if prevs, existed := m.MSet(0, nil, nil); len(prevs) != 0 || len(existed) != 0 {
		t.Error("MSet(empty) returned non-empty results")
	}
	if vals, ok := m.MGet(0, nil); len(vals) != 0 || len(ok) != 0 {
		t.Error("MGet(empty) returned non-empty results")
	}
	if prevs, existed := m.MDelete(0, nil); len(prevs) != 0 || len(existed) != 0 {
		t.Error("MDelete(empty) returned non-empty results")
	}
}

// TestBatchLargerThanBudget forces the chunking paths: vectors several
// times the combining budget must still apply exactly once each, in order,
// with results identical to sequential application.
func TestBatchLargerThanBudget(t *testing.T) {
	const total = 3*core.DefaultBatchBudget + 5
	u := core.NewPSim(2, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		old := *st
		*st += d
		return old
	})
	args := make([]uint64, total)
	for i := range args {
		args[i] = 1
	}
	res := u.ApplyBatch(0, args, nil)
	if len(res) != total {
		t.Fatalf("ApplyBatch returned %d results, want %d", len(res), total)
	}
	for i, r := range res {
		if r != uint64(i) {
			t.Fatalf("res[%d] = %d, want %d (sequential fetch-add)", i, r, i)
		}
	}
	if got := u.Read(); got != total {
		t.Errorf("state = %d, want %d", got, total)
	}

	// PSimWords chunks at WordBatchBudget (8).
	w := core.NewPSimWords(2, 0, []uint64{0}, func(st []uint64, _ int, f uint64) uint64 {
		prev := st[0]
		st[0] += f
		return prev
	})
	wargs := make([]uint64, 3*core.WordBatchBudget+1)
	for i := range wargs {
		wargs[i] = 1
	}
	wres := w.ApplyBatch(1, wargs, nil)
	for i, r := range wres {
		if r != uint64(i) {
			t.Fatalf("PSimWords res[%d] = %d, want %d", i, r, i)
		}
	}

	// SimQueue chunks at its internal budget (64): a 150-element batch
	// enqueued single-threadedly must come back complete and in order.
	q := queue.NewSimQueue[uint64](2)
	vals := make([]uint64, 150)
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	q.EnqueueBatch(0, vals)
	out := q.DequeueBatch(1, len(vals), nil)
	if len(out) != len(vals) {
		t.Fatalf("DequeueBatch returned %d values, want %d", len(out), len(vals))
	}
	for i, v := range out {
		if v != vals[i] {
			t.Fatalf("out[%d] = %d, want %d (FIFO)", i, v, vals[i])
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Error("queue non-empty after full drain")
	}
}

// TestBatchEnqueueVsDequeue races batched producers against batched
// consumers and checks (a) conservation — every value surfaces exactly
// once — and (b) per-producer FIFO: the subsequence of one producer's
// values seen by one consumer must appear in production order, batches
// included.
func TestBatchEnqueueVsDequeue(t *testing.T) {
	const producers, consumers, perProducer, b = 2, 2, 600, 7
	q := queue.NewSimQueue[uint64](producers + consumers)

	var wg sync.WaitGroup
	seen := make([][]uint64, consumers)
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vals := make([]uint64, 0, b)
			for k := 0; k < perProducer; k += b {
				vals = vals[:0]
				for j := 0; j < b && k+j < perProducer; j++ {
					vals = append(vals, uint64(p)<<32|uint64(k+j))
				}
				q.EnqueueBatch(p, vals)
			}
		}(i)
	}
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := producers + c
			got := make([]uint64, 0, perProducer)
			out := make([]uint64, 0, b)
			misses := 0
			for len(got) < producers*perProducer && misses < 1_000_000 {
				out = q.DequeueBatch(id, b, out[:0])
				if len(out) == 0 {
					misses++
					continue
				}
				got = append(got, out...)
			}
			seen[c] = got
		}(i)
	}
	wg.Wait()

	counts := make(map[uint64]int)
	for c, got := range seen {
		last := make([]int64, producers)
		for i := range last {
			last[i] = -1
		}
		for _, v := range got {
			counts[v]++
			p, seq := int(v>>32), int64(v&0xffffffff)
			if seq <= last[p] {
				t.Fatalf("consumer %d saw producer %d seq %d after %d (FIFO violation)", c, p, seq, last[p])
			}
			last[p] = seq
		}
	}
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		counts[v]++
	}
	if len(counts) != producers*perProducer {
		t.Fatalf("conservation: %d distinct values, want %d", len(counts), producers*perProducer)
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("value %#x dequeued %d times", v, c)
		}
	}
}

// TestBatchCrossShardMGet checks the consistency a striped multi-get DOES
// promise: each key individually reads a value that was current at some
// point during the call. Writers publish strictly increasing values per
// key (keys spread across all stripes); a reader's repeated MGets must then
// observe per-key non-decreasing values — a torn read or a stale stripe
// snapshot surfacing an older value after a newer one fails here.
func TestBatchCrossShardMGet(t *testing.T) {
	const writers, keysPerWriter, rounds = 3, 8, 400
	m := simmap.New[uint64, uint64](writers+1, 8)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, keysPerWriter)
			vals := make([]uint64, keysPerWriter)
			for j := range keys {
				keys[j] = uint64(w*keysPerWriter + j)
			}
			for v := uint64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range vals {
					vals[j] = v
				}
				m.MSet(w, keys, vals)
			}
		}(i)
	}

	allKeys := make([]uint64, writers*keysPerWriter)
	for i := range allKeys {
		allKeys[i] = uint64(i)
	}
	high := make([]uint64, len(allKeys))
	for r := 0; r < rounds; r++ {
		vals, ok := m.MGet(writers, allKeys)
		for j := range allKeys {
			if !ok[j] {
				continue // not yet written
			}
			if vals[j] < high[j] {
				t.Fatalf("key %d went backwards: saw %d after %d", allKeys[j], vals[j], high[j])
			}
			high[j] = vals[j]
		}
	}
	close(stop)
	wg.Wait()
}
