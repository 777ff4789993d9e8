package v2

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
)

// h builds one history operation.
func h(thread int, op string, arg, ret uint64, ok bool, inv, ret2 int64) check.Operation {
	return check.Operation{Thread: thread, Op: op, Arg: arg, Ret: ret, RetOK: ok, Invoke: inv, Return: ret2}
}

// --- Simulate: agreement with the search on hand-written histories ---

// agree cross-checks the frontier engine against the Wing–Gong search.
func agree(t *testing.T, ops []check.Operation, spec check.Spec, wantLin bool) {
	t.Helper()
	serr := Simulate(ops, spec)
	if serr != nil && !Rejected(serr) {
		t.Fatalf("forward engine limitation: %v", serr)
	}
	if got := serr == nil; got != wantLin {
		t.Fatalf("forward engine: linearizable=%v, want %v (err: %v)", got, wantLin, serr)
	}
	ok, err := check.Linearizable(ops, spec)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if ok != wantLin {
		t.Fatalf("search disagrees with expectation: linearizable=%v, want %v", ok, wantLin)
	}
}

func TestSimulateSequentialStack(t *testing.T) {
	agree(t, []check.Operation{
		h(0, check.OpPush, 1, 0, false, 1, 2),
		h(0, check.OpPush, 2, 0, false, 3, 4),
		h(0, check.OpPop, 0, 2, true, 5, 6),
		h(0, check.OpPop, 0, 1, true, 7, 8),
		h(0, check.OpPop, 0, 0, false, 9, 10),
	}, check.StackSpec(), true)
}

func TestSimulateRejectsWrongPopOrder(t *testing.T) {
	agree(t, []check.Operation{
		h(0, check.OpPush, 1, 0, false, 1, 2),
		h(0, check.OpPush, 2, 0, false, 3, 4),
		h(0, check.OpPop, 0, 1, true, 5, 6), // LIFO says 2 first
	}, check.StackSpec(), false)
}

func TestSimulateConcurrentOverlapIsPermissive(t *testing.T) {
	// Two overlapping pushes; pops may see either order.
	for _, first := range []uint64{1, 2} {
		second := uint64(3) - first
		agree(t, []check.Operation{
			h(0, check.OpPush, 1, 0, false, 1, 4),
			h(1, check.OpPush, 2, 0, false, 2, 5),
			h(0, check.OpPop, 0, second, true, 6, 7),
			h(0, check.OpPop, 0, first, true, 8, 9),
		}, check.StackSpec(), true)
	}
}

func TestSimulateRespectsRealTimeOrder(t *testing.T) {
	// push(1) completes before push(2) begins, yet pops claim 1 on top.
	agree(t, []check.Operation{
		h(0, check.OpPush, 1, 0, false, 1, 2),
		h(1, check.OpPush, 2, 0, false, 3, 4),
		h(0, check.OpPop, 0, 1, true, 5, 6),
		h(0, check.OpPop, 0, 2, true, 7, 8),
	}, check.StackSpec(), false)
}

func TestSimulateEmptyPopWindow(t *testing.T) {
	// The empty pop overlaps the push, so it may linearize first.
	agree(t, []check.Operation{
		h(0, check.OpPush, 7, 0, false, 1, 4),
		h(1, check.OpPop, 0, 0, false, 2, 3),
		h(1, check.OpPop, 0, 7, true, 5, 6),
	}, check.StackSpec(), true)
	// Here it cannot: the push completed first.
	agree(t, []check.Operation{
		h(0, check.OpPush, 7, 0, false, 1, 2),
		h(1, check.OpPop, 0, 0, false, 3, 4),
		h(1, check.OpPop, 0, 7, true, 5, 6),
	}, check.StackSpec(), false)
}

func TestSimulateCounterAndRegister(t *testing.T) {
	agree(t, []check.Operation{
		h(0, check.OpAdd, 5, 0, false, 1, 4),
		h(1, check.OpAdd, 3, 5, false, 2, 5),
		h(0, check.OpRead, 0, 8, false, 6, 7),
	}, check.CounterSpec(0), true)
	agree(t, []check.Operation{
		h(0, check.OpWrite, 9, 0, false, 1, 2),
		h(1, check.OpRead, 0, 0, false, 3, 4), // stale read after write returned
	}, check.RegisterSpec(0), false)
}

func TestSimulateLongHistoryPastSearchLimit(t *testing.T) {
	// 2000 sequential counter adds: far beyond the search's 64-op cap.
	var ops []check.Operation
	sum := uint64(0)
	for i := 0; i < 2000; i++ {
		ops = append(ops, h(i%4, check.OpAdd, 1, sum, false, int64(2*i+1), int64(2*i+2)))
		sum++
	}
	if err := Simulate(ops, check.CounterSpec(0)); err != nil {
		t.Fatalf("forward engine on 2000 ops: %v", err)
	}
	if _, err := check.Linearizable(ops, check.CounterSpec(0)); !errors.Is(err, check.ErrTooLarge) {
		t.Fatalf("search should refuse 2000 ops, got %v", err)
	}
}

func TestSimulateTooWide(t *testing.T) {
	// 65 overlapping adds whose recorded returns force a single
	// linearization chain (so the frontier stays small and the engine
	// genuinely runs out of open-op slots rather than frontier room).
	var ops []check.Operation
	for i := 0; i < 65; i++ {
		ops = append(ops, h(i, check.OpAdd, 1, uint64(i), false, int64(i+1), 1000+int64(i)))
	}
	err := Simulate(ops, check.CounterSpec(0))
	if !errors.Is(err, ErrTooWide) {
		t.Fatalf("got %v, want ErrTooWide", err)
	}
	if Rejected(err) {
		t.Fatal("width limit must not read as a rejection")
	}
}

func TestSimulateFrontierLimit(t *testing.T) {
	// Ten overlapping pushes of distinct values: every subset in every
	// order is a distinct stack state, so the frontier explodes past a tiny
	// cap.
	var ops []check.Operation
	for i := 0; i < 10; i++ {
		ops = append(ops, h(i, check.OpPush, uint64(i+1), 0, false, 1, 100))
	}
	err := Simulate(ops, check.StackSpec(), WithMaxFrontier(16))
	if !errors.Is(err, ErrFrontierLimit) {
		t.Fatalf("got %v, want ErrFrontierLimit", err)
	}
}

func TestSimulateMalformedWindow(t *testing.T) {
	err := Simulate([]check.Operation{h(0, check.OpAdd, 1, 0, false, 5, 5)}, check.CounterSpec(0))
	if err == nil || Rejected(err) {
		t.Fatalf("empty window should be a non-verdict error, got %v", err)
	}
}

// --- ForwardQueue ---

func TestForwardQueueSequential(t *testing.T) {
	if err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpEnqueue, 2, 0, false, 3, 4),
		h(0, check.OpDequeue, 0, 1, true, 5, 6),
		h(0, check.OpDequeue, 0, 2, true, 7, 8),
		h(0, check.OpDequeue, 0, 0, false, 9, 10),
	}); err != nil {
		t.Fatalf("good FIFO history rejected: %v", err)
	}
}

func TestForwardQueueVFresh(t *testing.T) {
	err := ForwardQueue([]check.Operation{
		h(0, check.OpDequeue, 0, 42, true, 1, 2),
	})
	if !Rejected(err) {
		t.Fatalf("dequeue of never-enqueued value: got %v", err)
	}
}

func TestForwardQueueVRepet(t *testing.T) {
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 5, 0, false, 1, 2),
		h(0, check.OpDequeue, 0, 5, true, 3, 4),
		h(1, check.OpDequeue, 0, 5, true, 5, 6),
	})
	if !Rejected(err) {
		t.Fatalf("value dequeued twice: got %v", err)
	}
}

func TestForwardQueuePairTiming(t *testing.T) {
	err := ForwardQueue([]check.Operation{
		h(0, check.OpDequeue, 0, 5, true, 1, 2),
		h(1, check.OpEnqueue, 5, 0, false, 3, 4), // enqueue begins after dequeue ended
	})
	if !Rejected(err) {
		t.Fatalf("dequeue before its enqueue: got %v", err)
	}
}

func TestForwardQueueVOrd(t *testing.T) {
	// enq(1) ≺ enq(2) in real time, both dequeued, but in reverse order by
	// non-overlapping dequeues.
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpEnqueue, 2, 0, false, 3, 4),
		h(1, check.OpDequeue, 0, 2, true, 5, 6),
		h(1, check.OpDequeue, 0, 1, true, 7, 8),
	})
	if !Rejected(err) {
		t.Fatalf("FIFO inversion: got %v", err)
	}
	// Overlapping enqueues may be dequeued in either order.
	if err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 4),
		h(1, check.OpEnqueue, 2, 0, false, 2, 5),
		h(1, check.OpDequeue, 0, 2, true, 6, 7),
		h(1, check.OpDequeue, 0, 1, true, 8, 9),
	}); err != nil {
		t.Fatalf("concurrent enqueues rejected: %v", err)
	}
}

func TestForwardQueueVOrdUndequeuedBlocker(t *testing.T) {
	// 1 is enqueued first and never dequeued; dequeuing the later value 2
	// is only legal while... actually it is illegal: a linearization must
	// dequeue 1 before 2. The undequeued value's dInv = ∞ triggers VOrd.
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpEnqueue, 2, 0, false, 3, 4),
		h(1, check.OpDequeue, 0, 2, true, 5, 6),
	})
	if !Rejected(err) {
		t.Fatalf("dequeue past an undequeued head: got %v", err)
	}
}

func TestForwardQueueEmptyDequeue(t *testing.T) {
	// Legal: the empty dequeue overlaps the enqueue.
	if err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 4),
		h(1, check.OpDequeue, 0, 0, false, 2, 3),
		h(1, check.OpDequeue, 0, 1, true, 5, 6),
	}); err != nil {
		t.Fatalf("overlapping empty dequeue rejected: %v", err)
	}
	// Illegal: the queue certainly holds 1 for the whole window.
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(1, check.OpDequeue, 0, 0, false, 3, 4),
		h(1, check.OpDequeue, 0, 1, true, 5, 6),
	})
	if !Rejected(err) {
		t.Fatalf("empty dequeue on a non-empty queue: got %v", err)
	}
}

func TestForwardQueueEmptyDequeueNeedsIntervalCover(t *testing.T) {
	// No SINGLE value blocks the whole window of the empty dequeue, but
	// the union of two blocking intervals does: x=1 occupies (2, 5) and
	// y=2 occupies (4, ∞); the empty dequeue runs over (3, 8) ⊂ (2, ∞).
	// A single-witness check would wrongly accept this history.
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2), // retE(1)=2
		h(0, check.OpEnqueue, 2, 0, false, 1, 4), // retE(2)=4
		h(1, check.OpDequeue, 0, 0, false, 3, 8), // empty over (3,8)
		h(2, check.OpDequeue, 0, 1, true, 5, 7),  // invD(1)=5
	})
	if !Rejected(err) {
		t.Fatalf("interval-cover empty violation: got %v", err)
	}
	// Cross-check with the search engine: it must agree.
	ok, serr := check.Linearizable([]check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpEnqueue, 2, 0, false, 1, 4),
		h(1, check.OpDequeue, 0, 0, false, 3, 8),
		h(2, check.OpDequeue, 0, 1, true, 5, 7),
	}, check.QueueSpec())
	if serr != nil || ok {
		t.Fatalf("search: (%v, %v), want rejection", ok, serr)
	}
}

func TestForwardQueueNotDifferentiated(t *testing.T) {
	err := ForwardQueue([]check.Operation{
		h(0, check.OpEnqueue, 7, 0, false, 1, 2),
		h(1, check.OpEnqueue, 7, 0, false, 3, 4),
	})
	if !errors.Is(err, ErrNotDifferentiated) {
		t.Fatalf("got %v, want ErrNotDifferentiated", err)
	}
	if Rejected(err) {
		t.Fatal("ErrNotDifferentiated must not read as a rejection")
	}
}

func TestForwardQueueLongHistory(t *testing.T) {
	// 5000 values through a FIFO with two interleaved lanes.
	var ops []check.Operation
	ts := int64(0)
	tick := func() int64 { ts++; return ts }
	for i := 0; i < 5000; i++ {
		v := uint64(i + 1)
		ops = append(ops, h(0, check.OpEnqueue, v, 0, false, tick(), tick()))
	}
	for i := 0; i < 5000; i++ {
		v := uint64(i + 1)
		ops = append(ops, h(1, check.OpDequeue, 0, v, true, tick(), tick()))
	}
	if err := ForwardQueue(ops); err != nil {
		t.Fatalf("long FIFO history rejected: %v", err)
	}
}

// --- differential fuzz over random small histories (deterministic seed) ---

// genQueueHistory produces a random complete queue history by simulating a
// (possibly buggy) queue over random interleavings.
func genQueueHistory(rng *rand.Rand, nOps int, lifo bool) []check.Operation {
	type open struct {
		slot int
		deq  bool
	}
	var (
		ops   []check.Operation
		queue []uint64
		opens []open
		ts    int64
		next  uint64 = 1
	)
	tick := func() int64 { ts++; return ts }
	for len(ops) < nOps || len(opens) > 0 {
		if len(opens) > 0 && (len(ops) >= nOps || rng.Intn(2) == 0) {
			// close a random open op
			i := rng.Intn(len(opens))
			o := opens[i]
			opens = append(opens[:i], opens[i+1:]...)
			if o.deq {
				if len(queue) == 0 {
					ops[o.slot].RetOK = false
				} else {
					idx := 0
					if lifo {
						idx = len(queue) - 1 // bug: LIFO service
					}
					ops[o.slot].Ret = queue[idx]
					ops[o.slot].RetOK = true
					queue = append(queue[:idx], queue[idx+1:]...)
				}
			} else {
				queue = append(queue, ops[o.slot].Arg)
			}
			ops[o.slot].Return = tick()
			continue
		}
		// open a new op
		deq := rng.Intn(2) == 0
		op := check.Operation{Thread: rng.Intn(4), Invoke: tick()}
		if deq {
			op.Op = check.OpDequeue
		} else {
			op.Op = check.OpEnqueue
			op.Arg = next
			next++
		}
		ops = append(ops, op)
		opens = append(opens, open{slot: len(ops) - 1, deq: deq})
	}
	return ops
}

// Note: the linearization point of this generator's operations is the
// CLOSE event, which always lies inside the recorded window, so fair
// histories are linearizable by construction; lifo histories usually are
// not. Either way both engines must agree — that is what's asserted.
func TestForwardQueueAgreesWithSearchOnRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		lifo := trial%2 == 1
		ops := genQueueHistory(rng, 10+rng.Intn(8), lifo)
		if len(ops) > 64 {
			continue
		}
		ferr := ForwardQueue(ops)
		if ferr != nil && !Rejected(ferr) {
			t.Fatalf("trial %d: queue checker limitation: %v\n%s", trial, ferr, FormatHistory(ops))
		}
		ok, serr := check.Linearizable(ops, check.QueueSpec())
		if serr != nil {
			t.Fatalf("trial %d: search: %v", trial, serr)
		}
		if ok != (ferr == nil) {
			t.Fatalf("trial %d: search=%v forward=%v\nhistory:\n%s", trial, ok, ferr, FormatHistory(ops))
		}
		// The frontier engine must agree too — except where many
		// concurrent distinct-value enqueues blow the frontier (the very
		// case ForwardQueue exists for), which is a declared limitation.
		merr := Simulate(ops, check.QueueSpec(), WithMaxFrontier(4096))
		if errors.Is(merr, ErrFrontierLimit) {
			continue
		}
		if merr != nil && !Rejected(merr) {
			t.Fatalf("trial %d: frontier limitation: %v", trial, merr)
		}
		if ok != (merr == nil) {
			t.Fatalf("trial %d: search=%v frontier=%v\nhistory:\n%s", trial, ok, merr, FormatHistory(ops))
		}
	}
}

// --- compositional driver ---

func TestCheckHistoryMixedClasses(t *testing.T) {
	ops := []check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(1, check.OpMapPut, 3<<32|9, 0, false, 3, 4),
		h(0, check.OpDequeue, 0, 1, true, 5, 6),
		h(1, check.OpMapGet, 3<<32, 9, true, 7, 8),
		h(2, check.OpPush, 4, 0, false, 9, 10),
		h(2, check.OpPop, 0, 4, true, 11, 12),
	}
	if err := Check(ops); err != nil {
		t.Fatalf("mixed history rejected: %v", err)
	}
	// Break the map part only.
	ops[3].Ret = 8
	err := Check(ops)
	if !Rejected(err) {
		t.Fatalf("bad map read: got %v", err)
	}
}

func TestCheckHistoryEngines(t *testing.T) {
	good := []check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpDequeue, 0, 1, true, 3, 4),
	}
	bad := []check.Operation{
		h(0, check.OpEnqueue, 1, 0, false, 1, 2),
		h(0, check.OpDequeue, 0, 2, true, 3, 4),
	}
	for _, e := range []Engine{EngineForward, EngineSearch, EngineBoth} {
		opts := DefaultOptions()
		opts.Engine = e
		if err := CheckHistory(good, opts); err != nil {
			t.Fatalf("engine %v rejected good history: %v", e, err)
		}
		if err := CheckHistory(bad, opts); !Rejected(err) {
			t.Fatalf("engine %v on bad history: %v", e, err)
		}
	}
}

func TestCheckHistoryBothFallsBackPastSearchLimit(t *testing.T) {
	// >64 ops in one partition: EngineBoth must let the forward engine
	// decide alone rather than fail with ErrTooLarge.
	var ops []check.Operation
	sum := uint64(0)
	for i := 0; i < 100; i++ {
		ops = append(ops, h(0, check.OpAdd, 1, sum, false, int64(2*i+1), int64(2*i+2)))
		sum++
	}
	opts := DefaultOptions()
	opts.Engine = EngineBoth
	if err := CheckHistory(ops, opts); err != nil {
		t.Fatalf("EngineBoth past search limit: %v", err)
	}
}

// TestCheckHistoryBothPastSearchBudget: a 24-op queue history whose
// refutation exceeds the search's configuration budget (12 concurrent
// enqueues of 1..12 against 12 concurrent dequeues returning 1, 1, 2, …, 11)
// is decided by the forward engine alone under EngineBoth — its rejection,
// not ErrTooLarge and not a disagreement — while EngineSearch alone cannot
// decide it.
func TestCheckHistoryBothPastSearchBudget(t *testing.T) {
	var ops []check.Operation
	for i := 0; i < 12; i++ {
		ops = append(ops, h(i, check.OpEnqueue, uint64(i+1), 0, false, int64(i), int64(100+i)))
	}
	for i := 0; i < 12; i++ {
		ops = append(ops, h(12+i, check.OpDequeue, 0, uint64(max(i, 1)), true, int64(12+i), int64(112+i)))
	}
	opts := DefaultOptions()
	opts.Engine = EngineSearch
	if err := CheckHistory(ops, opts); !errors.Is(err, check.ErrTooLarge) {
		t.Fatalf("EngineSearch: %v, want ErrTooLarge", err)
	}
	opts.Engine = EngineForward
	ferr := CheckHistory(ops, opts)
	if !Rejected(ferr) {
		t.Fatalf("EngineForward: %v, want a rejection", ferr)
	}
	opts.Engine = EngineBoth
	if err := CheckHistory(ops, opts); err == nil || err.Error() != ferr.Error() {
		t.Fatalf("EngineBoth: %v, want the forward engine's rejection %v", err, ferr)
	}
}

func TestCheckHistoryMapPartitionModesAgree(t *testing.T) {
	// By locality, per-key and whole-map checking must return the same
	// verdict on every single-key-op history; the two modes exist to
	// cross-validate each other. A good overlapped history...
	good := []check.Operation{
		h(0, check.OpMapPut, 1<<32|5, 0, false, 1, 10),
		h(0, check.OpMapPut, 2<<32|6, 0, false, 2, 3),
		h(1, check.OpMapGet, 2<<32, 6, true, 4, 5),
		h(1, check.OpMapGet, 1<<32, 0, false, 6, 7), // put(1,5) still open: may linearize later
	}
	// ...and a bad one: the get misses a put that returned before it began.
	bad := append([]check.Operation(nil), good...)
	bad[0].Return = 3

	for _, partition := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Partition = partition
		if err := CheckHistory(good, opts); err != nil {
			t.Fatalf("partition=%v rejected good history: %v", partition, err)
		}
		if err := CheckHistory(bad, opts); !Rejected(err) {
			t.Fatalf("partition=%v on bad history: %v", partition, err)
		}
	}
}

func TestCheckHistorySetPartitioning(t *testing.T) {
	ops := []check.Operation{
		h(0, check.OpInsert, 1, 0, true, 1, 2),
		h(1, check.OpInsert, 2, 0, true, 3, 4),
		h(0, check.OpContains, 1, 0, true, 5, 6),
		h(1, check.OpRemove, 2, 0, true, 7, 8),
		h(1, check.OpContains, 2, 0, false, 9, 10),
	}
	if err := Check(ops); err != nil {
		t.Fatalf("good set history rejected: %v", err)
	}
	ops[4].RetOK = true // contains(2) after remove(2) succeeded
	if err := Check(ops); !Rejected(err) {
		t.Fatalf("bad set history: %v", err)
	}
}

func TestCheckHistoryAmbiguousReads(t *testing.T) {
	ops := []check.Operation{
		h(0, check.OpAdd, 1, 0, false, 1, 2),
		h(0, check.OpMul, 2, 1, false, 3, 4),
		h(0, check.OpRead, 0, 2, false, 5, 6),
	}
	if err := Check(ops); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("got %v, want ErrAmbiguous", err)
	}
}

func TestCheckHistoryBareReadsAreARegister(t *testing.T) {
	ops := []check.Operation{
		h(0, check.OpRead, 0, 0, false, 1, 2),
		h(1, check.OpRead, 0, 0, false, 3, 4),
	}
	if err := Check(ops); err != nil {
		t.Fatalf("reads-only history rejected: %v", err)
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{"forward": EngineForward, "search": EngineSearch, "both": EngineBoth} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Fatal("ParseEngine should reject unknown names")
	}
}

// --- SetKeySpec / MapSpec sanity against their whole-object originals ---

func TestSetKeySpecMatchesSetSpecPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var ops []check.Operation
		ts := int64(0)
		for i := 0; i < 12; i++ {
			ts++
			op := check.Operation{Thread: 0, Arg: uint64(rng.Intn(2) + 1), Invoke: ts, Return: ts + 1}
			ts++
			op.Op = []string{check.OpInsert, check.OpRemove, check.OpContains}[rng.Intn(3)]
			op.RetOK = rng.Intn(2) == 0
			ops = append(ops, op)
		}
		whole, err := check.Linearizable(ops, check.SetSpec())
		if err != nil {
			t.Fatal(err)
		}
		perKey, err := check.LinearizablePartitioned(ops,
			func(o check.Operation) string { return fmt.Sprint(o.Arg) },
			func(string) check.Spec { return SetKeySpec() })
		if err != nil {
			t.Fatal(err)
		}
		if whole != perKey {
			t.Fatalf("trial %d: SetSpec=%v per-key SetKeySpec=%v\n%s", trial, whole, perKey, FormatHistory(ops))
		}
	}
}

func TestMapSpecMatchesMapKeySpecOnSequentialHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var ops []check.Operation
		ts := int64(0)
		for i := 0; i < 12; i++ {
			key := uint64(rng.Intn(2) + 1)
			val := uint64(rng.Intn(3))
			op := check.Operation{Thread: 0, Invoke: ts + 1, Return: ts + 2}
			ts += 2
			switch rng.Intn(3) {
			case 0:
				op.Op = check.OpMapPut
				op.Arg = key<<32 | val
			case 1:
				op.Op = check.OpMapDel
				op.Arg = key << 32
			default:
				op.Op = check.OpMapGet
				op.Arg = key << 32
			}
			op.Ret = uint64(rng.Intn(3))
			op.RetOK = rng.Intn(2) == 0
			ops = append(ops, op)
		}
		whole, err := check.Linearizable(ops, MapSpec())
		if err != nil {
			t.Fatal(err)
		}
		perKey, err := check.LinearizablePartitioned(ops, check.MapPartOf,
			func(string) check.Spec { return check.MapKeySpec() })
		if err != nil {
			t.Fatal(err)
		}
		// On sequential histories whole-map and per-key agree exactly.
		if whole != perKey {
			t.Fatalf("trial %d: MapSpec=%v per-key=%v\n%s", trial, whole, perKey, FormatHistory(ops))
		}
	}
}

// --- history text format ---

func TestHistoryFormatRoundTrip(t *testing.T) {
	ops := []check.Operation{
		h(0, check.OpEnqueue, 7, 0, false, 1, 2),
		h(1, check.OpMapPut, 3<<32|17, 0, false, 3, 4),
		h(2, check.OpMapGet, 3<<32, 17, true, 5, 6),
		h(3, check.OpDequeue, 0, 7, true, 7, 8),
	}
	text := FormatHistory(ops)
	back, err := ParseHistory(text)
	if err != nil {
		t.Fatalf("ParseHistory: %v\n%s", err, text)
	}
	if len(back) != len(ops) {
		t.Fatalf("round trip length %d != %d", len(back), len(ops))
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Fatalf("op %d: %v != %v", i, back[i], ops[i])
		}
	}
	if !bytes.Contains(text, []byte("3:17")) {
		t.Fatalf("map put should use k:v sugar:\n%s", text)
	}
}

func TestParseHistoryErrors(t *testing.T) {
	for _, bad := range []string{
		"0 enq 1 0 ok 1", // too few fields
		"x enq 1 0 ok 1 2",
		"0 enq 1 0 maybe 1 2",
		"0 mput 3:z 0 ok 1 2",
	} {
		if _, err := ParseHistory([]byte(bad)); err == nil {
			t.Fatalf("ParseHistory(%q) should fail", bad)
		}
	}
	ops, err := ParseHistory([]byte("# comment\n\n  0 enq 5 0 no 1 2 # trailing\n"))
	if err != nil || len(ops) != 1 || ops[0].Arg != 5 {
		t.Fatalf("comment handling: %v %v", ops, err)
	}
}
