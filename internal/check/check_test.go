package check

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// h builds an operation with explicit interval endpoints.
func h(thread int, op string, arg, ret uint64, ok bool, inv, res int64) Operation {
	return Operation{Thread: thread, Op: op, Arg: arg, Ret: ret, RetOK: ok, Invoke: inv, Return: res}
}

func TestEmptyHistoryLinearizable(t *testing.T) {
	if ok, err := Linearizable(nil, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("empty history rejected")
	}
}

func TestSequentialStackAccepted(t *testing.T) {
	ops := []Operation{
		h(0, OpPush, 1, 0, false, 1, 2),
		h(0, OpPush, 2, 0, false, 3, 4),
		h(0, OpPop, 0, 2, true, 5, 6),
		h(0, OpPop, 0, 1, true, 7, 8),
		h(0, OpPop, 0, 0, false, 9, 10),
	}
	if ok, err := Linearizable(ops, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid sequential stack history rejected")
	}
}

func TestSequentialStackWrongOrderRejected(t *testing.T) {
	ops := []Operation{
		h(0, OpPush, 1, 0, false, 1, 2),
		h(0, OpPush, 2, 0, false, 3, 4),
		h(0, OpPop, 0, 1, true, 5, 6), // FIFO answer from a LIFO object
	}
	if ok, err := Linearizable(ops, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("non-LIFO history accepted by stack spec")
	}
}

func TestConcurrentStackReorderAccepted(t *testing.T) {
	// Overlapping push(1) and pop -> pop may see 1 even though the pop's
	// invocation precedes the push's response.
	ops := []Operation{
		h(0, OpPush, 1, 0, false, 1, 5),
		h(1, OpPop, 0, 1, true, 2, 6),
	}
	if ok, err := Linearizable(ops, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("legal concurrent history rejected")
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// pop returns 1 BEFORE push(1) is invoked: must be rejected.
	ops := []Operation{
		h(1, OpPop, 0, 1, true, 1, 2),
		h(0, OpPush, 1, 0, false, 3, 4),
	}
	if ok, err := Linearizable(ops, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("future-read accepted: real-time order not enforced")
	}
}

func TestEmptyPopOnlyWhenEmptyPossible(t *testing.T) {
	// push(1) completes, then pop claims empty: must be rejected.
	ops := []Operation{
		h(0, OpPush, 1, 0, false, 1, 2),
		h(1, OpPop, 0, 0, false, 3, 4),
	}
	if ok, err := Linearizable(ops, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("empty pop after completed push accepted")
	}
	// Overlapping push and empty-pop: the pop may linearize first — accept.
	ops2 := []Operation{
		h(0, OpPush, 1, 0, false, 1, 5),
		h(1, OpPop, 0, 0, false, 2, 4),
	}
	if ok, err := Linearizable(ops2, StackSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("empty pop overlapping push rejected")
	}
}

func TestQueueSpecFIFO(t *testing.T) {
	ok := []Operation{
		h(0, OpEnqueue, 1, 0, false, 1, 2),
		h(0, OpEnqueue, 2, 0, false, 3, 4),
		h(1, OpDequeue, 0, 1, true, 5, 6),
		h(1, OpDequeue, 0, 2, true, 7, 8),
	}
	if ok, err := Linearizable(ok, QueueSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid FIFO history rejected")
	}
	bad := []Operation{
		h(0, OpEnqueue, 1, 0, false, 1, 2),
		h(0, OpEnqueue, 2, 0, false, 3, 4),
		h(1, OpDequeue, 0, 2, true, 5, 6), // LIFO answer from a FIFO object
	}
	if ok, err := Linearizable(bad, QueueSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("non-FIFO history accepted by queue spec")
	}
}

func TestQueueDuplicateDequeueRejected(t *testing.T) {
	ops := []Operation{
		h(0, OpEnqueue, 7, 0, false, 1, 2),
		h(1, OpDequeue, 0, 7, true, 3, 4),
		h(2, OpDequeue, 0, 7, true, 5, 6),
	}
	if ok, err := Linearizable(ops, QueueSpec()); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("duplicated dequeue accepted")
	}
}

func TestCounterSpec(t *testing.T) {
	ok := []Operation{
		h(0, OpAdd, 5, 0, false, 1, 2),
		h(1, OpAdd, 3, 5, false, 3, 4),
		h(0, OpRead, 0, 8, false, 5, 6),
	}
	if ok, err := Linearizable(ok, CounterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid counter history rejected")
	}
	bad := []Operation{
		h(0, OpAdd, 5, 0, false, 1, 2),
		h(1, OpAdd, 3, 4, false, 3, 4), // wrong previous value
	}
	if ok, err := Linearizable(bad, CounterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("wrong fetch-add response accepted")
	}
}

func TestCounterConcurrentPermutation(t *testing.T) {
	// Two overlapping add(1): previous values {0,1} in either assignment.
	ops := []Operation{
		h(0, OpAdd, 1, 1, false, 1, 10),
		h(1, OpAdd, 1, 0, false, 2, 9),
	}
	if ok, err := Linearizable(ops, CounterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("legal overlapping adds rejected")
	}
	dup := []Operation{
		h(0, OpAdd, 1, 0, false, 1, 10),
		h(1, OpAdd, 1, 0, false, 2, 9), // both claim previous 0
	}
	if ok, err := Linearizable(dup, CounterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("duplicate previous values accepted")
	}
}

func TestFMulSpec(t *testing.T) {
	ops := []Operation{
		h(0, OpMul, 3, 1, false, 1, 2),
		h(1, OpMul, 5, 3, false, 3, 4),
		h(0, OpRead, 0, 15, false, 5, 6),
	}
	if ok, err := Linearizable(ops, FMulSpec(1)); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid Fetch&Multiply history rejected")
	}
}

func TestRegisterSpec(t *testing.T) {
	ok := []Operation{
		h(0, OpWrite, 9, 0, false, 1, 2),
		h(1, OpRead, 0, 9, false, 3, 4),
	}
	if ok, err := Linearizable(ok, RegisterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid register history rejected")
	}
	bad := []Operation{
		h(0, OpWrite, 9, 0, false, 1, 2),
		h(1, OpRead, 0, 0, false, 3, 4), // stale read after completed write
	}
	if ok, err := Linearizable(bad, RegisterSpec(0)); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("stale read accepted")
	}
}

func TestRecorderTimestamps(t *testing.T) {
	r := NewRecorder(4)
	s1 := r.Invoke(0, OpPush, 1)
	r.Return(s1, 0, false)
	s2 := r.Invoke(1, OpPop, 0)
	r.Return(s2, 1, true)
	ops := r.Operations()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops", len(ops))
	}
	if !(ops[0].Invoke < ops[0].Return && ops[0].Return < ops[1].Invoke) {
		t.Fatalf("timestamps not ordered: %+v", ops)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	const n, per = 4, 50
	r := NewRecorder(n * per)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				s := r.Invoke(id, OpAdd, 1)
				r.Return(s, uint64(k), false)
			}
		}(i)
	}
	wg.Wait()
	ops := r.Operations()
	if len(ops) != n*per {
		t.Fatalf("recorded %d ops, want %d", len(ops), n*per)
	}
	for _, o := range ops {
		if o.Invoke >= o.Return {
			t.Fatalf("inverted interval: %v", o)
		}
	}
}

func TestRecorderCapacityPanics(t *testing.T) {
	r := NewRecorder(1)
	r.Invoke(0, OpPush, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected capacity panic")
		}
	}()
	r.Invoke(0, OpPush, 2)
}

func TestLinearizableTooLargeError(t *testing.T) {
	ops := make([]Operation, 65)
	for i := range ops {
		ops[i] = h(0, OpPush, 1, 0, false, int64(2*i), int64(2*i+1))
	}
	ok, err := Linearizable(ops, StackSpec())
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got (%v, %v), want ErrTooLarge", ok, err)
	}
	// The partitioned form surfaces the same error with the partition name.
	if _, err := LinearizablePartitioned(ops, func(Operation) string { return "p" },
		func(string) Spec { return StackSpec() }); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("partitioned: %v, want ErrTooLarge", err)
	}
}

// wideDuplicateDequeue is 12 concurrent enqueues of 1..12 overlapping 12
// concurrent dequeues that return 1, 1, 2, …, 11: value 1 comes back twice,
// so no linearization exists and an unbounded search would have to refute
// every interleaving.
func wideDuplicateDequeue() []Operation {
	var ops []Operation
	for i := 0; i < 12; i++ {
		ops = append(ops, h(i, OpEnqueue, uint64(i+1), 0, false, int64(i), int64(100+i)))
	}
	for i := 0; i < 12; i++ {
		ops = append(ops, h(12+i, OpDequeue, 0, uint64(max(i, 1)), true, int64(12+i), int64(112+i)))
	}
	return ops
}

// TestLinearizableBudget: a history whose refutation is exponential gives up
// with ErrTooLarge within the search's configuration budget — promptly and
// in bounded memory — instead of growing its memo without a verdict.
func TestLinearizableBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ok, err := Linearizable(wideDuplicateDequeue(), QueueSpec())
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got (%v, %v), want ErrTooLarge", ok, err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("search gave up after %v, want < 10s", elapsed)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<20 {
		t.Errorf("search allocated %d MiB, want <= 512 MiB", grew>>20)
	}
	t.Logf("gave up after %v, %d MiB allocated", elapsed, (after.TotalAlloc-before.TotalAlloc)>>20)
}

func TestOperationString(t *testing.T) {
	s := h(2, OpPop, 0, 7, true, 1, 3).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestLinearizablePartitioned(t *testing.T) {
	// Two independent registers, each with a consistent sub-history, but
	// more total ops than one bitmask could hold if scaled up.
	var ops []Operation
	ts := int64(0)
	for k := 0; k < 2; k++ {
		key := fmt.Sprintf("k%d", k)
		for i := 0; i < 5; i++ {
			ts++
			inv := ts
			ts++
			ops = append(ops, Operation{
				Thread: k, Op: OpWrite, Arg: uint64(i),
				Invoke: inv, Return: ts,
			})
			_ = key
		}
	}
	partOf := func(o Operation) string { return fmt.Sprintf("t%d", o.Thread) }
	spec := func(string) Spec { return RegisterSpec(0) }
	if ok, err := LinearizablePartitioned(ops, partOf, spec); err != nil {
		t.Fatalf("search: %v", err)
	} else if !ok {
		t.Fatal("valid partitioned history rejected")
	}
	// Corrupt one partition: a read of a value never written.
	bad := append(append([]Operation(nil), ops...), Operation{
		Thread: 0, Op: OpRead, Ret: 999, Invoke: ts + 1, Return: ts + 2,
	})
	if ok, err := LinearizablePartitioned(bad, partOf, spec); err != nil {
		t.Fatalf("search: %v", err)
	} else if ok {
		t.Fatal("invalid partition accepted")
	}
}
