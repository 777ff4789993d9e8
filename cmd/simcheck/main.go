// Command simcheck stress-tests the repository's concurrent objects and
// checks them for linearizability. Two modes:
//
//	-mode stress    large concurrent runs checked with structural invariants
//	                (value conservation, no duplication, per-producer order)
//	-mode linearize many small adversarial histories validated with the
//	                Wing–Gong checker
//
// Example:
//
//	simcheck -object stack -impl sim -threads 8 -ops 10000
//	simcheck -object queue -impl ms -mode linearize -rounds 200
//	simcheck -object queue -impl sim -batch 4 -mode linearize
//	simcheck -object map -mode linearize -batch 4
//
// -batch B drives the Sim-family batched entry points (ApplyBatch,
// EnqueueBatch/DequeueBatch, PushBatch/PopBatch, MSet/MGet/MDelete): stress
// mode produces and consumes in B-sized batches, linearize mode records
// each batched call as B per-element operations sharing the call's
// invoke/return window (a batch promises each element a linearization
// point inside the call, not elementwise atomic separation) and checks the
// history as usual. For fmul the batch is additionally checked for internal
// consistency (res[j+1] = res[j]*f[j]) and collapsed to one Fetch&Multiply
// of the factors' product. -object map checks the SHARDED map per key with
// the partitioned checker — per-key linearizability is exactly the
// guarantee a sharded map makes.
//
// Linearize mode is driven by the internal/check/v2 compositional checker:
//
//	-engine forward   single-pass forward-simulation checkers (default;
//	                  scales to histories far past 64 operations)
//	-engine search    the original Wing–Gong exhaustive search (degrades
//	                  to forward past its 64-operation budget)
//	-engine both      runs both and fails on any verdict disagreement —
//	                  the cross-validation mode CI uses
//
// Neither engine limits history LENGTH, but the forward engine tracks at
// most 64 concurrently OPEN operations (one bit each in the frontier's
// pending mask). Batched linearize runs therefore cap -batch at 21: three
// overlapping batched calls open 3×batch operations at once, and 3×21 = 63
// is the widest that fits. A wider history makes the checker return
// ErrTooWide ("forward engine: more than 64 operations overlap") — a
// capacity verdict, not a linearizability verdict: the history was not
// proven wrong, the engine just could not decide it. Callers must treat it
// as "undecided", never as a pass or a violation; simcheck reports such
// rounds as "history not decided" warnings (v2.Rejected distinguishes real
// violations from engine limits).
//
//	-partition=false  checks map histories against the whole-map spec on a
//	                  single state instead of per key; by Herlihy–Wing
//	                  locality the verdict is the same, so this is another
//	                  cross-validation path, not a different contract
//
// -sched-seed S (nonzero) replaces free-running goroutines with the
// deterministic adversarial scheduler from internal/check/sched: every
// linearize round derives a replayable schedule from S, and a failing
// round prints the exact flags that reproduce it plus a minimized
// preemption budget. -sched-preempt bounds forced preemptions per
// schedule (-1 = a switch is considered at every preemption point).
// Only the Sim-family implementations (fmul's psim and pool included)
// expose preemption points; other impls simply serialize under the
// scheduler.
//
// Exit status 0 means every check passed.
//
// Sim-family implementations run with the wait-free flight recorder
// attached: when a check FAILs, the newest combining-round events (round
// commits with their degree, CAS publish failures, recycling misses, …)
// are dumped to stderr — the post-mortem view of what the combiners were
// doing when the invariant broke. -flight-last bounds the dump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/check/sched"
	"repro/internal/check/v2"
	"repro/internal/fmul"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/stack"
)

// flight is the flight recorder shared by every Sim-family instance the
// checker builds (attached via attachFlight); nil for untraced impls.
var flight *trace.Tracer

// flightLast bounds the number of events dumped on failure.
var flightLast int

// attachFlight hooks the flight recorder onto implementations that support
// it and returns the object for inline use.
func attachFlight[T any](o T) T {
	if a, ok := any(o).(interface {
		Attach(*obs.Registry, string, *obs.SimRecorder, *trace.Tracer)
	}); ok {
		a.Attach(nil, "", nil, flight)
	}
	return o
}

// dumpFlight writes the newest recorded events to stderr after a failure.
func dumpFlight() {
	if flight == nil {
		return
	}
	evs := flight.Snapshot()
	if len(evs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "--- flight recorder: newest %d of %d events ---\n",
		min(flightLast, len(evs)), len(evs))
	_ = trace.WriteText(os.Stderr, trace.Tail(evs, flightLast))
}

// Linearize-mode configuration set once in main from flags.
var (
	engineSel    v2.Engine // which checker engine validates histories
	partitionSel bool      // per-key map checking vs whole-map spec
	schedSeed    uint64    // 0 = free-running goroutines, else deterministic schedules
	schedPreempt int       // forced-preemption budget per seeded schedule
)

func main() {
	var (
		object  = flag.String("object", "stack", "object to check: stack, queue, fmul, map (sharded)")
		impl    = flag.String("impl", "sim", "implementation (stack: sim|treiber|elimination|clh|fc; queue: sim|ms|twolock|fc; fmul: psim|pool|clh|mcs|lockfree|fc|herlihy|combtree)")
		mode    = flag.String("mode", "stress", "check mode: stress or linearize")
		threads = flag.Int("threads", 8, "concurrent processes")
		ops     = flag.Int("ops", 5000, "operations per process (stress mode)")
		rounds  = flag.Int("rounds", 100, "histories to check (linearize mode)")
		last    = flag.Int("flight-last", 64, "max flight-recorder events dumped to stderr on failure")
		batch   = flag.Int("batch", 1, "drive batched entry points with vectors of this size (1 = single-op paths)")

		engine = flag.String("engine", "forward",
			"linearize-mode checker: forward, search, or both (cross-validate); forward tracks at most "+
				"64 concurrently open operations, so batched runs cap -batch at 21 (search: 8) and wider "+
				"histories fail fast with ErrTooWide")
		partition = flag.Bool("partition", true, "check map histories per key; false uses the whole-map spec (same verdict, different code path)")
		seed      = flag.Uint64("sched-seed", 0, "deterministic schedule seed for linearize mode (0 = free-running goroutines)")
		preempt   = flag.Int("sched-preempt", -1, "max forced preemptions per seeded schedule (-1 = consider a switch at every point)")
	)
	flag.Parse()

	var err error
	engineSel, err = v2.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simcheck: %v\n", err)
		os.Exit(2)
	}
	partitionSel = *partition
	schedSeed = *seed
	schedPreempt = *preempt

	// Linearize mode always runs 3-process histories; size the rings for
	// whichever mode needs more. Every operation is recorded (no sampling):
	// a post-mortem with holes is not a post-mortem.
	n := *threads
	if n < 3 {
		n = 3
	}
	flight = trace.New(n, trace.WithSampleEvery(1))
	flightLast = *last

	ok := false
	switch *object {
	case "stack":
		ok = checkStack(*impl, *mode, *threads, *ops, *rounds, *batch)
	case "queue":
		ok = checkQueue(*impl, *mode, *threads, *ops, *rounds, *batch)
	case "fmul":
		ok = checkFMul(*impl, *mode, *threads, *ops, *rounds, *batch)
	case "map":
		ok = checkMap(*mode, *threads, *ops, *rounds, *batch)
	default:
		fmt.Fprintf(os.Stderr, "simcheck: unknown object %q\n", *object)
		os.Exit(2)
	}
	if !ok {
		dumpFlight()
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("OK")
}

func newStack(impl string, n int) stack.Interface[uint64] {
	switch impl {
	case "sim":
		return stack.NewSimStack[uint64](n)
	case "treiber":
		return stack.NewTreiber[uint64](n)
	case "elimination":
		return stack.NewElimination[uint64](n)
	case "clh":
		return stack.NewCLHStack[uint64](n)
	case "fc":
		return stack.NewFCStack[uint64](n, 0, 0)
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown stack impl %q\n", impl)
	os.Exit(2)
	return nil
}

func newQueue(impl string, n int) queue.Interface[uint64] {
	switch impl {
	case "sim":
		return queue.NewSimQueue[uint64](n)
	case "ms":
		return queue.NewMSQueue[uint64](n)
	case "twolock":
		return queue.NewTwoLockQueue[uint64](n)
	case "fc":
		return queue.NewFCQueue[uint64](n, 0, 0)
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown queue impl %q\n", impl)
	os.Exit(2)
	return nil
}

func newFMul(impl string, n int) fmul.Interface {
	switch impl {
	case "psim":
		return fmul.NewPSim(n)
	case "pool":
		return fmul.NewPSimPooled(n)
	case "clh":
		return fmul.NewCLH(n)
	case "mcs":
		return fmul.NewMCS(n)
	case "lockfree":
		return fmul.NewLockFree(n)
	case "fc":
		return fmul.NewFC(n, 0, 0)
	case "herlihy":
		return fmul.NewHerlihy(n)
	case "combtree":
		return fmul.NewCombTree(n)
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown fmul impl %q\n", impl)
	os.Exit(2)
	return nil
}

// batched is the batched produce/consume surface shared by SimStack
// (PushBatch/PopBatch) and SimQueue (EnqueueBatch/DequeueBatch) once the
// method names are adapted by the callers below.
type batched struct {
	produce func(id int, vals []uint64)
	consume func(id, want int, out []uint64) []uint64
}

// asBatchedStack adapts a stack to the batched surface, exiting if the
// implementation has no vector entry points.
func asBatchedStack(s stack.Interface[uint64], impl string) batched {
	type sb interface {
		PushBatch(id int, vals []uint64)
		PopBatch(id, want int, out []uint64) []uint64
	}
	b, ok := any(s).(sb)
	if !ok {
		fmt.Fprintf(os.Stderr, "simcheck: stack impl %q has no batched entry points (-batch needs sim)\n", impl)
		os.Exit(2)
	}
	return batched{produce: b.PushBatch, consume: b.PopBatch}
}

// asBatchedQueue adapts a queue to the batched surface.
func asBatchedQueue(q queue.Interface[uint64], impl string) batched {
	type qb interface {
		EnqueueBatch(id int, vals []uint64)
		DequeueBatch(id, want int, out []uint64) []uint64
	}
	b, ok := any(q).(qb)
	if !ok {
		fmt.Fprintf(os.Stderr, "simcheck: queue impl %q has no batched entry points (-batch needs sim)\n", impl)
		os.Exit(2)
	}
	return batched{produce: b.EnqueueBatch, consume: b.DequeueBatch}
}

func checkStack(impl, mode string, threads, ops, rounds, batch int) bool {
	switch mode {
	case "stress":
		s := attachFlight(newStack(impl, threads))
		var popped map[uint64]int
		if batch > 1 {
			b := asBatchedStack(s, impl)
			popped = concurrentBatchPairs(threads, ops, batch, b)
		} else {
			popped = concurrentPairs(threads, ops,
				func(id int, v uint64) { s.Push(id, v) },
				func(id int) (uint64, bool) { return s.Pop(id) })
		}
		return verifyConservation(popped, threads*ops, func() (uint64, bool) { return s.Pop(0) })
	case "linearize":
		for r := 0; r < rounds; r++ {
			record := func(cfg sched.Config) []check.Operation {
				s := attachFlight(newStack(impl, 3))
				if batch > 1 {
					return recordBatchHistory(cfg, linBatch(batch), check.OpPush, check.OpPop, asBatchedStack(s, impl))
				}
				return recordHistory(cfg, 3,
					check.OpPush, func(id int, v uint64) { s.Push(id, v) },
					check.OpPop, func(id int) (uint64, bool) { return s.Pop(id) })
			}
			cfg := roundCfg(r, 3)
			if !reportCheck(r, "stack", record(cfg), cfg, record) {
				return false
			}
		}
		return true
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown mode %q\n", mode)
	os.Exit(2)
	return false
}

func checkQueue(impl, mode string, threads, ops, rounds, batch int) bool {
	switch mode {
	case "stress":
		q := attachFlight(newQueue(impl, threads))
		var got map[uint64]int
		if batch > 1 {
			b := asBatchedQueue(q, impl)
			got = concurrentBatchPairs(threads, ops, batch, b)
		} else {
			got = concurrentPairs(threads, ops,
				func(id int, v uint64) { q.Enqueue(id, v) },
				func(id int) (uint64, bool) { return q.Dequeue(id) })
		}
		return verifyConservation(got, threads*ops, func() (uint64, bool) { return q.Dequeue(0) })
	case "linearize":
		for r := 0; r < rounds; r++ {
			record := func(cfg sched.Config) []check.Operation {
				q := attachFlight(newQueue(impl, 3))
				if batch > 1 {
					return recordBatchHistory(cfg, linBatch(batch), check.OpEnqueue, check.OpDequeue, asBatchedQueue(q, impl))
				}
				return recordHistory(cfg, 3,
					check.OpEnqueue, func(id int, v uint64) { q.Enqueue(id, v) },
					check.OpDequeue, func(id int) (uint64, bool) { return q.Dequeue(id) })
			}
			cfg := roundCfg(r, 3)
			if !reportCheck(r, "queue", record(cfg), cfg, record) {
				return false
			}
		}
		return true
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown mode %q\n", mode)
	os.Exit(2)
	return false
}

// fmulBatcher is the vector entry point of the P-Sim Fetch&Multiply
// variants.
type fmulBatcher interface {
	ApplyBatch(id int, fs, res []uint64) []uint64
}

// asBatchedFMul asserts the vector entry point, exiting if absent.
func asBatchedFMul(o fmul.Interface, impl string) fmulBatcher {
	b, ok := any(o).(fmulBatcher)
	if !ok {
		fmt.Fprintf(os.Stderr, "simcheck: fmul impl %q has no ApplyBatch (-batch needs psim or pool)\n", impl)
		os.Exit(2)
	}
	return b
}

// chainConsistent verifies the internal promise of a Fetch&Multiply batch:
// element j+1 observes exactly the state element j left behind, i.e. the
// vector was applied contiguously at one linearization point.
func chainConsistent(fs, res []uint64) bool {
	for j := 1; j < len(res); j++ {
		if res[j] != res[j-1]*fs[j-1] {
			return false
		}
	}
	return true
}

func checkFMul(impl, mode string, threads, ops, rounds, batch int) bool {
	switch mode {
	case "stress":
		o := attachFlight(newFMul(impl, threads))
		var want uint64 = 1
		for i := 0; i < threads*ops; i++ {
			want *= 3
		}
		var bad atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if batch > 1 {
					b := asBatchedFMul(o, impl)
					fs := make([]uint64, batch)
					res := make([]uint64, 0, batch)
					for k := 0; k < ops; k += len(fs) {
						if rem := ops - k; rem < len(fs) {
							fs = fs[:rem]
						}
						for j := range fs {
							fs[j] = 3
						}
						res = b.ApplyBatch(id, fs, res[:0])
						if !chainConsistent(fs, res) {
							bad.Store(true)
						}
					}
					return
				}
				for k := 0; k < ops; k++ {
					o.Apply(id, 3)
				}
			}(i)
		}
		wg.Wait()
		if bad.Load() {
			fmt.Println("batch chain inconsistency: res[j+1] != res[j]*f[j] inside one ApplyBatch")
			return false
		}
		if got := o.Read(); got != want {
			fmt.Printf("product mismatch: got %#x want %#x\n", got, want)
			return false
		}
		return true
	case "linearize":
		for r := 0; r < rounds; r++ {
			chainBad := make([]bool, 3)
			record := func(cfg sched.Config) []check.Operation {
				o := attachFlight(newFMul(impl, 3))
				rec := check.NewRecorder(9)
				for i := range chainBad {
					chainBad[i] = false
				}
				runWorkers(cfg, func(id int) {
					if batch > 1 {
						// Each batched call is checked for internal chain
						// consistency, then collapsed to ONE Fetch&Multiply
						// of the factors' product returning res[0]: if the
						// chain holds, the vector is indistinguishable from
						// that single operation to every other process.
						b := asBatchedFMul(o, impl)
						fs := make([]uint64, batch)
						res := make([]uint64, 0, batch)
						for k := 0; k < 3; k++ {
							prod := uint64(1)
							for j := range fs {
								fs[j] = uint64(2*(id*batch+j)+3) | 1
								prod *= fs[j]
							}
							slot := rec.Invoke(id, check.OpMul, prod)
							res = b.ApplyBatch(id, fs, res[:0])
							if !chainConsistent(fs, res) {
								chainBad[id] = true
							}
							rec.Return(slot, res[0], false)
						}
						return
					}
					for k := 0; k < 3; k++ {
						slot := rec.Invoke(id, check.OpMul, 3)
						prev := o.Apply(id, 3)
						rec.Return(slot, prev, false)
					}
				})
				return rec.Operations()
			}
			cfg := roundCfg(r, 3)
			h := record(cfg)
			for id, b := range chainBad {
				if b {
					fmt.Printf("round %d: process %d saw an inconsistent batch chain\n", r, id)
					return false
				}
			}
			if !reportCheck(r, "Fetch&Multiply", h, cfg, record) {
				return false
			}
		}
		return true
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown mode %q\n", mode)
	os.Exit(2)
	return false
}

// concurrentPairs runs threads×ops produce+consume pairs with unique tagged
// values and returns the multiset of consumed values.
func concurrentPairs(threads, ops int, produce func(int, uint64), consume func(int) (uint64, bool)) map[uint64]int {
	var mu sync.Mutex
	got := make(map[uint64]int)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := map[uint64]int{}
			for k := 0; k < ops; k++ {
				produce(id, uint64(id*ops+k)+1)
				if v, ok := consume(id); ok {
					local[v]++
				}
			}
			mu.Lock()
			for v, c := range local {
				got[v] += c
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return got
}

// verifyConservation drains the remainder and checks that every produced
// value was consumed exactly once.
func verifyConservation(got map[uint64]int, produced int, drain func() (uint64, bool)) bool {
	for {
		v, ok := drain()
		if !ok {
			break
		}
		got[v]++
	}
	if len(got) != produced {
		fmt.Printf("conservation: %d distinct values consumed, want %d\n", len(got), produced)
		return false
	}
	for v, c := range got {
		if c != 1 {
			fmt.Printf("duplication: value %d consumed %d times\n", v, c)
			return false
		}
	}
	return true
}

// roundCfg derives round r's schedule config. With -sched-seed=0 the config
// is inert (runWorkers falls back to free goroutines); otherwise each round
// gets a distinct seed derived from the flag so the whole run is replayable
// from -sched-seed alone, and any single failing round is replayable by
// passing its derived seed with -rounds 1.
func roundCfg(r, threads int) sched.Config {
	if schedSeed == 0 {
		return sched.Config{Threads: threads}
	}
	s := schedSeed + uint64(r)*0x9e3779b97f4a7c15
	if s == 0 {
		s = 1
	}
	return sched.Config{Seed: s, Threads: threads, Preemptions: schedPreempt}
}

// runWorkers executes body on cfg.Threads workers: free goroutines when the
// config is unseeded, the deterministic token-passing scheduler otherwise.
func runWorkers(cfg sched.Config, body func(id int)) {
	if cfg.Seed != 0 {
		sched.Exec(cfg, body)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body(id)
		}(i)
	}
	wg.Wait()
}

// checkLin runs the configured engine over one linearize-mode history. When
// the Wing–Gong oracle exceeds its 64-operation budget the check degrades
// to the forward engine instead of giving up (-engine=both already does
// this internally; the explicit fallback covers -engine=search).
func checkLin(h []check.Operation) error {
	opts := v2.DefaultOptions()
	opts.Engine = engineSel
	opts.Partition = partitionSel
	err := v2.CheckHistory(h, opts)
	if err != nil && !v2.Rejected(err) && errors.Is(err, check.ErrTooLarge) {
		opts.Engine = v2.EngineForward
		err = v2.CheckHistory(h, opts)
	}
	return err
}

// reportCheck validates one linearize-mode history. A rejection prints the
// history in the replayable text format plus, for seeded runs, a minimized
// schedule that still reproduces it. An engine limitation (frontier or
// width cap, ambiguous classification) is a warning, not a failure: the
// history was not proven wrong, the checker just could not decide it.
func reportCheck(r int, what string, h []check.Operation, cfg sched.Config, record func(sched.Config) []check.Operation) bool {
	err := checkLin(h)
	if err == nil {
		return true
	}
	if !v2.Rejected(err) {
		fmt.Fprintf(os.Stderr, "simcheck: round %d: %s history not decided: %v\n", r, what, err)
		return true
	}
	fmt.Printf("round %d: non-linearizable %s history: %v\n", r, what, err)
	os.Stdout.Write(v2.FormatHistory(h))
	if cfg.Seed != 0 {
		min := sched.Minimize(cfg, func(c sched.Config) bool {
			return v2.Rejected(checkLin(record(c)))
		})
		fmt.Printf("replay: -mode linearize -rounds 1 -sched-seed=%d -sched-preempt=%d (minimized from %s)\n",
			min.Seed, min.Preemptions, cfg)
	}
	return false
}

// recordHistory runs a tiny concurrent history of produce/consume pairs.
func recordHistory(cfg sched.Config, per int, prodOp string, produce func(int, uint64), consOp string, consume func(int) (uint64, bool)) []check.Operation {
	rec := check.NewRecorder(2 * cfg.Threads * per)
	runWorkers(cfg, func(id int) {
		for k := 0; k < per; k++ {
			v := uint64(id*per+k) + 1
			slot := rec.Invoke(id, prodOp, v)
			produce(id, v)
			rec.Return(slot, 0, false)

			slot = rec.Invoke(id, consOp, 0)
			cv, ok := consume(id)
			rec.Return(slot, cv, ok)
		}
	})
	return rec.Operations()
}

// newSharded builds a sharded map wired to the flight recorder (every shard
// shares the one ring — multi-key calls touch shards sequentially, so the
// single-writer-per-lane discipline holds).
func newSharded(n, shards, stripes int) *simmap.Sharded[uint64, uint64] {
	m := simmap.NewSharded[uint64, uint64](n, shards, stripes)
	m.Attach(nil, "", flight)
	return m
}

// checkMap validates the sharded map. Stress mode: every thread owns a
// DISJOINT key range on one shared Sharded instance (shards and stripes stay
// contended even though keys are not) and hammers it with batched
// MSet/MDelete; because each key has a single writer, its final binding is
// deterministic and verified with MGet afterwards. Linearize mode: small
// adversarial histories on a 4-key space, each batched call recorded as
// per-key operations spanning the call's window, checked with the
// compositional v2 checker (per key by default; -partition=false routes the
// same history through the whole-map spec instead).
func checkMap(mode string, threads, ops, rounds, batch int) bool {
	if batch < 1 {
		batch = 1
	}
	switch mode {
	case "stress":
		const keysPerThread = 64
		m := newSharded(threads, 4, 4)
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				base := uint64(id * keysPerThread)
				keys := make([]uint64, 0, batch)
				vals := make([]uint64, 0, batch)
				for k := 0; k < ops; k += batch {
					keys, vals = keys[:0], vals[:0]
					for j := 0; j < batch && k+j < ops; j++ {
						key := base + uint64((k+j)%keysPerThread)
						keys = append(keys, key)
						vals = append(vals, uint64(k+j)<<16|key)
					}
					m.MSet(id, keys, vals)
					if k%3 == 0 {
						m.MDelete(id, keys)
					}
				}
				// Deterministic final pass: bind every owned key, then
				// delete the multiples of three.
				keys, vals = keys[:0], vals[:0]
				for j := 0; j < keysPerThread; j++ {
					keys = append(keys, base+uint64(j))
					vals = append(vals, (base+uint64(j))^0xabcdef)
				}
				m.MSet(id, keys, vals)
				keys = keys[:0]
				for j := 0; j < keysPerThread; j++ {
					if key := base + uint64(j); key%3 == 0 {
						keys = append(keys, key)
					}
				}
				m.MDelete(id, keys)
			}(i)
		}
		wg.Wait()
		keys := make([]uint64, 0, keysPerThread)
		for id := 0; id < threads; id++ {
			keys = keys[:0]
			for j := 0; j < keysPerThread; j++ {
				keys = append(keys, uint64(id*keysPerThread+j))
			}
			vals, ok := m.MGet(0, keys)
			for j, key := range keys {
				wantOK := key%3 != 0
				if ok[j] != wantOK || (wantOK && vals[j] != key^0xabcdef) {
					fmt.Printf("key %d: got (%d,%v) want present=%v val=%d\n",
						key, vals[j], ok[j], wantOK, key^0xabcdef)
					return false
				}
			}
		}
		return true
	case "linearize":
		b := linBatch(batch)
		for r := 0; r < rounds; r++ {
			record := func(cfg sched.Config) []check.Operation {
				m := newSharded(3, 2, 1)
				rec := check.NewRecorder(2 * 3 * b)
				runWorkers(cfg, func(id int) {
					// Tiny deterministic PRNG so failures replay.
					seed := uint64(r*3+id)*2654435761 + 1
					next := func() uint64 {
						seed = seed*6364136223846793005 + 1442695040888963407
						return seed >> 33
					}
					keys := make([]uint64, b)
					vals := make([]uint64, b)
					slots := make([]int, b)
					// Call 1: a batched MSet on random keys of 0..3.
					for j := range keys {
						keys[j] = next() % 4
						vals[j] = next()%1000 + 1
					}
					for j := range keys {
						slots[j] = rec.Invoke(id, check.OpMapPut, keys[j]<<32|vals[j])
					}
					prevs, existed := m.MSet(id, keys, vals)
					for j := range slots {
						rec.Return(slots[j], prevs[j], existed[j])
					}
					// Call 2: a batched MGet or MDelete, alternating.
					for j := range keys {
						keys[j] = next() % 4
					}
					if (r+id)%2 == 0 {
						for j := range keys {
							slots[j] = rec.Invoke(id, check.OpMapGet, keys[j]<<32)
						}
						gv, gok := m.MGet(id, keys)
						for j := range slots {
							rec.Return(slots[j], gv[j], gok[j])
						}
					} else {
						for j := range keys {
							slots[j] = rec.Invoke(id, check.OpMapDel, keys[j]<<32)
						}
						prevs, existed := m.MDelete(id, keys)
						for j := range slots {
							rec.Return(slots[j], prevs[j], existed[j])
						}
					}
				})
				return rec.Operations()
			}
			cfg := roundCfg(r, 3)
			if !reportCheck(r, "map", record(cfg), cfg, record) {
				return false
			}
		}
		return true
	}
	fmt.Fprintf(os.Stderr, "simcheck: unknown mode %q\n", mode)
	os.Exit(2)
	return false
}

// linBatch caps the linearize-mode batch. The Wing–Gong search needs each
// 3-process history inside its 64-operation budget; the forward engine has
// no history-length limit but tracks at most 64 simultaneously open
// operations, and three overlapping batched calls open 3×batch at once.
func linBatch(batch int) int {
	max := 21 // 3 overlapping calls stay within the 64 open-op slots
	if engineSel == v2.EngineSearch {
		max = 8
	}
	if batch > max {
		return max
	}
	return batch
}

// concurrentBatchPairs is concurrentPairs over vector entry points: each
// iteration produces a batch of unique tagged values and then consumes a
// batch, returning the multiset of consumed values.
func concurrentBatchPairs(threads, ops, batch int, b batched) map[uint64]int {
	var mu sync.Mutex
	got := make(map[uint64]int)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := map[uint64]int{}
			vals := make([]uint64, 0, batch)
			out := make([]uint64, 0, batch)
			for k := 0; k < ops; k += batch {
				vals = vals[:0]
				for j := 0; j < batch && k+j < ops; j++ {
					vals = append(vals, uint64(id*ops+k+j)+1)
				}
				b.produce(id, vals)
				out = b.consume(id, len(vals), out[:0])
				for _, v := range out {
					local[v]++
				}
			}
			mu.Lock()
			for v, c := range local {
				got[v] += c
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return got
}

// recordBatchHistory runs one produce-batch + consume-batch round per
// process and records every element as its own operation sharing the batch
// call's invoke/return window: a batched call guarantees each element a
// linearization point inside the call (in fact the whole vector applies at
// one point), so the per-element history must still linearize. Consume
// batches report hits first (at most one chunk is involved at these sizes,
// and within a chunk misses are a suffix).
func recordBatchHistory(cfg sched.Config, batch int, prodOp, consOp string, b batched) []check.Operation {
	rec := check.NewRecorder(2 * cfg.Threads * batch)
	runWorkers(cfg, func(id int) {
		vals := make([]uint64, batch)
		out := make([]uint64, 0, batch)
		slots := make([]int, batch)
		for j := range vals {
			vals[j] = uint64(id*batch+j) + 1
		}
		for j, v := range vals {
			slots[j] = rec.Invoke(id, prodOp, v)
		}
		b.produce(id, vals)
		for _, sl := range slots {
			rec.Return(sl, 0, false)
		}
		for j := range slots {
			slots[j] = rec.Invoke(id, consOp, 0)
		}
		out = b.consume(id, batch, out[:0])
		for j, sl := range slots {
			if j < len(out) {
				rec.Return(sl, out[j], true)
			} else {
				rec.Return(sl, 0, false)
			}
		}
	})
	return rec.Operations()
}
