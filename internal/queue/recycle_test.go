package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSimQueueNodeRecyclingStress drives the era rule against the three
// stale readers it exists for, each parked at PointCollect while it holds
// its hazard: a dequeue combiner (process 0) and a dequeuer inside its
// help-splice (process 2) first, then an enqueue combiner (process 1).
// Meanwhile processes 3..5 run at least 10k rounds of enqueues and
// dequeues. Every node a parked process can still touch must stay intact
// while it is parked (a recycled one would be reset or refilled, which the
// race detector also reports); then the parked processes resume while the
// others keep running — the dequeue combiner walks its stale head, the
// splicers CAS their stale oldTail's next — and FIFO order and
// conservation are checked.
func TestSimQueueNodeRecyclingStress(t *testing.T) {
	episodes := 3
	if testing.Short() {
		episodes = 1
	}
	for ep := 0; ep < episodes; ep++ {
		recyclingEpisode(t)
	}
}

// parker parks its process at the at-th PointCollect it reaches.
type parker struct {
	at      int32
	hits    atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

// nodeSnap is a node a parked process may still touch, as it was at park
// time (next nil: the node was the tail, whose next may still be set).
type nodeSnap struct {
	nd   *qnode[uint64]
	v    uint64
	next *qnode[uint64]
}

// snapList records the nodes from first up to last (nil: the end).
func snapList(snaps []nodeSnap, first, last *qnode[uint64]) []nodeSnap {
	for nd := first; nd != nil; nd = nd.next.Load() {
		snaps = append(snaps, nodeSnap{nd, nd.v, nd.next.Load()})
		if nd == last {
			break
		}
	}
	return snaps
}

// snapEnq records what a splice of es can touch: its oldTail and batch.
func snapEnq(snaps []nodeSnap, es *enqState[uint64]) []nodeSnap {
	snaps = snapList(snaps, es.oldTail, es.oldTail)
	return snapList(snaps, es.lfirst, es.newTail)
}

func checkIntact(t *testing.T, who string, snaps []nodeSnap) {
	t.Helper()
	for i, s := range snaps {
		if s.nd.v != s.v || (s.next != nil && s.nd.next.Load() != s.next) {
			t.Fatalf("%s: node %d of %d was recycled while a parked process could reach it", who, i, len(snaps))
		}
	}
}

func recyclingEpisode(t *testing.T) {
	const n, parked, stallRounds = 6, 3, 10_000
	q := NewSimQueue[uint64](n)
	reg := obs.NewRegistry()
	q.Attach(reg, "q", nil, nil)

	// Process 2's first PointCollect is its own combining read; the second
	// is the help-splice read of enqP.
	pk := []*parker{{at: 1}, {at: 1}, {at: 2}}
	for _, p := range pk {
		p.parked, p.release = make(chan struct{}), make(chan struct{})
	}
	core.SetSchedHook(func(pid int, p core.SchedPoint) {
		if p != core.PointCollect || pid >= parked {
			return
		}
		if k := pk[pid]; k.hits.Add(1) == k.at {
			close(k.parked)
			<-k.release
		}
	})
	defer core.SetSchedHook(nil)

	val := func(prod int, seq uint64) uint64 { return uint64(prod)<<32 | seq }
	seqs := make([]uint64, n) // last sequence number producer i enqueued
	const prefill = 64
	for seqs[3] < prefill {
		seqs[3]++
		q.Enqueue(3, val(3, seqs[3]))
	}

	// got[c] is what consumer c dequeued, in order.
	got := make([][]uint64, n)
	var pwg sync.WaitGroup
	dequeuer := func(id int) {
		defer pwg.Done()
		if v, ok := q.Dequeue(id); ok {
			got[id] = append(got[id], v)
		}
	}
	pwg.Add(2)
	go dequeuer(0) // a dequeue combiner
	<-pk[0].parked
	go dequeuer(2) // a dequeuer inside its help-splice
	<-pk[2].parked
	var deqSnaps []nodeSnap
	deqSnaps = snapList(deqSnaps, q.deqHaz.Protected(0).head, nil)
	deqSnaps = snapList(deqSnaps, q.deqHaz.Protected(2).head, nil)
	deqSnaps = snapEnq(deqSnaps, q.enqHaz.Protected(n+2))

	var rounds atomic.Int64
	var stop atomic.Bool
	var wwg sync.WaitGroup
	for id := parked; id < n; id++ {
		wwg.Add(1)
		go func(id int) {
			defer wwg.Done()
			vals := make([]uint64, 0, 8)
			var out []uint64
			for r := 0; !stop.Load(); r++ {
				if r%4 == 0 {
					vals = vals[:0]
					for k := 0; k < 1+r%8; k++ {
						seqs[id]++
						vals = append(vals, val(id, seqs[id]))
					}
					q.EnqueueBatch(id, vals)
					out = q.DequeueBatch(id, len(vals), out[:0])
					got[id] = append(got[id], out...)
				} else {
					seqs[id]++
					q.Enqueue(id, val(id, seqs[id]))
					if v, ok := q.Dequeue(id); ok {
						got[id] = append(got[id], v)
					}
				}
				rounds.Add(1)
			}
		}(id)
	}
	stall := func() {
		for target := rounds.Load() + stallRounds; rounds.Load() < target; {
			runtime.Gosched()
		}
	}

	stall()
	checkIntact(t, "dequeue side", deqSnaps)
	close(pk[0].release)
	close(pk[2].release)
	pwg.Wait()

	pwg.Add(1)
	go func() { // an enqueue combiner
		defer pwg.Done()
		q.Enqueue(1, val(1, 1))
	}()
	<-pk[1].parked
	enqSnaps := snapEnq(nil, q.enqHaz.Protected(1))
	stall()
	checkIntact(t, "enqueue side", enqSnaps)
	close(pk[1].release)
	pwg.Wait()
	seqs[1] = 1

	// Keep going with nobody parked, so recycling restarts and runs against
	// live concurrency.
	stall()
	stop.Store(true)
	wwg.Wait()

	// Then one goroutine, round-robin: with no hazard held across rounds
	// every consumed run passes the era rule one retire later, so nearly
	// every node must come back from the plane.
	fresh0, blocks0 := nodeCounter(reg, "alloc_fresh_total"), nodeCounter(reg, "alloc_blocks_total")
	for r := 0; r < 3000; r++ {
		id := parked + r%(n-parked)
		seqs[id]++
		q.Enqueue(id, val(id, seqs[id]))
		if v, ok := q.Dequeue(id); ok {
			got[id] = append(got[id], v)
		}
	}
	fresh, blocks := nodeCounter(reg, "alloc_fresh_total")-fresh0, nodeCounter(reg, "alloc_blocks_total")-blocks0
	for {
		v, ok := q.Dequeue(3)
		if !ok {
			break
		}
		got[3] = append(got[3], v)
	}

	// Conservation and FIFO: every enqueued value exactly once, and one
	// consumer sees each producer's values in order.
	seen := map[uint64]bool{}
	for c, vs := range got {
		last := map[int]uint64{}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d/%d dequeued twice", v>>32, v&0xFFFFFFFF)
			}
			seen[v] = true
			prod, s := int(v>>32), v&0xFFFFFFFF
			if s <= last[prod] {
				t.Fatalf("consumer %d: producer %d value %d after %d", c, prod, s, last[prod])
			}
			last[prod] = s
		}
	}
	want := 0
	for prod, last := range seqs {
		for s := uint64(1); s <= last; s++ {
			if !seen[val(prod, s)] {
				t.Fatalf("producer %d value %d lost", prod, s)
			}
		}
		want += int(last)
	}
	if len(seen) != want {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), want)
	}
	if blocks == 0 || fresh*10 > blocks {
		t.Fatalf("after the parked processes left: %d of %d nodes fresh, want at most a tenth", fresh, blocks)
	}
}

// nodeCounter sums the queue node pool's counter family name in reg.
func nodeCounter(reg *obs.Registry, name string) uint64 {
	var total uint64
	for _, c := range reg.LookupCounters(obs.Labeled(name, "class", "q_node")) {
		total += c.Total()
	}
	return total
}

// TestSimQueueDrainedBacklogRecycles drains a backlog in more runs than the
// limbo holds with no enqueue in between — the case the era rule's
// kept-back oldTail exists for. Every consumed run but the one holding the
// current record's oldTail must go back to the plane at once, so refilling
// allocates almost nothing, and that oldTail must stay untouched (not
// reset) until an enqueue moves enqP on.
func TestSimQueueDrainedBacklogRecycles(t *testing.T) {
	const n, backlog, chunk, cycles = 8, 6 * core.DefaultBatchBudget, 8, 8
	q := NewSimQueue[uint64](n)
	reg := obs.NewRegistry()
	q.Attach(reg, "q", nil, nil)
	vals := make([]uint64, core.DefaultBatchBudget)
	var out []uint64
	next, want := uint64(1), uint64(1)
	var fresh0 uint64
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle == cycles/2 {
			fresh0 = nodeCounter(reg, "alloc_fresh_total")
		}
		for k := 0; k < backlog/core.DefaultBatchBudget; k++ {
			for i := range vals {
				vals[i] = next
				next++
			}
			q.EnqueueBatch(0, vals)
		}
		for {
			out = q.DequeueBatch(1, chunk, out[:0])
			if len(out) == 0 {
				break
			}
			for _, v := range out {
				if v != want {
					t.Fatalf("cycle %d: dequeued %d, want %d", cycle, v, want)
				}
				want++
			}
		}
		if pin := q.enqP.Load().oldTail; pin.v == 0 {
			t.Fatalf("cycle %d: the current record's oldTail went back to the plane before enqP moved on", cycle)
		}
	}
	fresh := nodeCounter(reg, "alloc_fresh_total") - fresh0
	if total := uint64(cycles/2) * backlog; fresh*10 > total {
		t.Fatalf("refilling drained backlogs took %d fresh nodes for %d enqueues, want at most a tenth", fresh, total)
	}
}
