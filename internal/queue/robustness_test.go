package queue

import (
	"sync"
	"testing"

	"repro/internal/xatomic"
)

// TestSimQueueCrashedEnqueuerDoesNotBlock: an enqueuer that crashes right
// after announcing (Algorithm 5 lines 1–3) cannot block the queue, and its
// enqueue is performed by helpers exactly once. This is the robustness
// property that separates SimQueue from flat combining's blocking combiner.
func TestSimQueueCrashedEnqueuerDoesNotBlock(t *testing.T) {
	const n, per = 4, 200
	q := NewSimQueue[uint64](n)

	// Process 0 announces value 999999 and crashes.
	v := uint64(999_999)
	q.enqAnnounce.Publish(0, []uint64{v})
	xatomic.NewToggler(q.enqAct, 0).Toggle()

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				q.Enqueue(id, uint64(id*per+k))
			}
		}(i)
	}
	wg.Wait()

	// Drain: every live enqueue must be present plus the crashed one.
	count, crashed := 0, 0
	for {
		got, ok := q.Dequeue(1)
		if !ok {
			break
		}
		if got == v {
			crashed++
		}
		count++
	}
	if count != (n-1)*per+1 {
		t.Fatalf("drained %d values, want %d", count, (n-1)*per+1)
	}
	if crashed != 1 {
		t.Fatalf("crashed enqueue applied %d times, want exactly 1", crashed)
	}
}

// TestSimQueueCrashedDequeuerDoesNotBlock: a dequeuer that crashes after
// toggling its DeqAct bit is served by helpers; live dequeuers keep going.
func TestSimQueueCrashedDequeuerDoesNotBlock(t *testing.T) {
	const n = 4
	q := NewSimQueue[uint64](n)
	for k := uint64(1); k <= 100; k++ {
		q.Enqueue(0, k)
	}

	// Process 3 announces a dequeue and crashes.
	xatomic.NewToggler(q.deqAct, 3).Toggle()

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[uint64]int{}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				if v, ok := q.Dequeue(id); ok {
					mu.Lock()
					got[v]++
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()

	// 90 live dequeues + 1 helped crashed dequeue = at most 91 removals; no
	// value may be dequeued twice.
	for v, c := range got {
		if c != 1 {
			t.Fatalf("value %d dequeued %d times", v, c)
		}
	}
	if len(got) > 91 {
		t.Fatalf("%d values dequeued by 90 live ops (+1 crashed)", len(got))
	}
	// The crashed dequeuer's response was recorded by helpers.
	ls := q.deqP.Load()
	if !ls.applied.Bit(3) {
		t.Fatal("crashed dequeuer's operation was never applied")
	}
	if row := ls.res.Row(3); len(row) != 1 || !row[0].ok {
		t.Fatalf("crashed dequeuer's recorded response row %v is not one hit on a non-empty queue", row)
	}
}
