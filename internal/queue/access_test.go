package queue

import (
	"sync"
	"testing"
)

// TestSimQueueAccessCountSequential: at n=1 both ends run the solo round,
// which bills exactly 2 shared accesses per operation on each end — the
// record load and the publishing store.
func TestSimQueueAccessCountSequential(t *testing.T) {
	q := NewSimQueue[uint64](1)
	const per = 100
	for k := uint64(0); k < per; k++ {
		q.Enqueue(0, k)
	}
	if got := float64(q.enqStats.Aggregate().SharedAccesses) / per; got != 2 {
		t.Fatalf("enqueue accesses/op = %v, want 2", got)
	}
	for k := 0; k < per; k++ {
		q.Dequeue(0)
	}
	if got := float64(q.deqStats.Aggregate().SharedAccesses) / per; got != 2 {
		t.Fatalf("dequeue accesses/op = %v, want 2", got)
	}
}

// TestSimQueueAccessCountGrowsWithHelping: under forced combining each end
// bills like P-Sim — a small constant plus the amortized announce reads of
// the publishing operations — well under O(n) per operation.
func TestSimQueueAccessCountGrowsWithHelping(t *testing.T) {
	const n, per = 8, 200
	q := NewSimQueue[uint64](n)
	q.SetBackoff(512, 4096)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				q.Enqueue(id, uint64(k))
				q.Dequeue(id)
			}
		}(i)
	}
	wg.Wait()
	for end, st := range map[string]uint64{
		"enqueue": q.enqStats.Aggregate().SharedAccesses,
		"dequeue": q.deqStats.Aggregate().SharedAccesses,
	} {
		perOp := float64(st) / float64(n*per)
		t.Logf("%s accesses/op = %.2f", end, perOp)
		if perOp < 5 || perOp > 20 {
			t.Fatalf("%s accesses/op = %v, expected small constant + amortized k", end, perOp)
		}
	}
}
