// Command simcheck stress-tests the repository's concurrent objects and
// checks them for linearizability. Two modes:
//
//	-mode stress    large concurrent runs checked with structural invariants
//	                (value conservation, no duplication, per-producer order)
//	-mode linearize many small adversarial 3-process histories validated
//	                with the internal/check/v2 checker
//
// Example:
//
//	simcheck -object stack -impl sim -threads 8 -ops 10000
//	simcheck -object queue -impl ms -mode linearize -rounds 200
//	simcheck -object queue -impl sim -batch 4 -mode linearize
//	simcheck -object map -mode linearize -batch 4
//
// One table drives every object: each -object entry (stack, queue, fmul,
// map) names its implementations and supplies a stress body and a
// per-process linearize body, and one driver runs both modes for all.
//
// -batch B drives the Sim-family batched entry points (ApplyBatch,
// EnqueueBatch/DequeueBatch, PushBatch/PopBatch, MSet/MGet/MDelete).
// Linearize mode records each batched call as B per-element operations
// sharing the call's invoke/return window: a batch promises each element a
// linearization point inside the call, not elementwise atomic separation.
// -batch 1 is a batch of one: the single-op entry points (Push/Pop,
// Enqueue/Dequeue, Apply) are adapted onto the batched surface. A stack or
// queue history holds three single-op pairs per process at B = 1, one
// B-wide pair at B > 1. A fmul batch is also checked for internal
// consistency (res[j+1] = res[j]*f[j]) and collapsed to one Fetch&Multiply
// of the factors' product. -object map checks the STRIPED map (impl sim)
// per key, exactly the guarantee it makes; -partition=false checks the
// same history against the whole-map spec (same verdict by Herlihy–Wing
// locality: a cross-validation path).
//
// -engine forward (default) runs the single-pass forward-simulation
// checkers, -engine search the original Wing–Gong search, and -engine both
// runs both and fails on any verdict disagreement (CI's cross-validation
// mode). The forward engine tracks at most 64 concurrently open operations
// and three overlapping B-wide calls open 3B, so linearize mode caps
// -batch at 21; the search decides at most 64 operations within a fixed
// budget of explored configurations, and its cap of 8 bounds a history at
// 3 processes × 2 calls × 8 = 48. A history an engine cannot decide (a
// capacity, budget or classification limit, not a violation) is a "history
// not decided" warning, never a pass or a failure; under -engine both, a
// history past the search's reach is decided by the forward engine alone.
//
// -sched-seed S (nonzero) replaces free-running goroutines with the
// deterministic adversarial scheduler from internal/check/sched: every
// linearize round derives a replayable schedule from S, and a failing
// round prints the exact flags that reproduce it plus a minimized
// preemption budget. -sched-preempt bounds forced preemptions per
// schedule (-1 = a switch is considered at every preemption point). Only
// the Sim-family implementations expose preemption points; other impls
// simply serialize under the scheduler.
//
// Exit status 0 means every check passed, 1 a failed check, 2 a refused
// input: an unknown object, impl or mode, -threads, -ops, -rounds or
// -batch below 1, -batch > 1 on an impl without batched entry points, or a
// linearize -batch above the engine's cap.
//
// Sim-family implementations run with the wait-free flight recorder
// attached: when a check FAILs, the newest combining-round events (round
// commits with their degree, CAS publish failures, recycling misses, …)
// are dumped to stderr. -flight-last bounds the dump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
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
// checker builds (attached via attachFlight); flightLast bounds the number
// of events dumped on failure.
var (
	flight     *trace.Tracer
	flightLast int
)

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
	evs := flight.Snapshot()
	if len(evs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "--- flight recorder: newest %d of %d events ---\n",
		min(flightLast, len(evs)), len(evs))
	_ = trace.WriteText(os.Stderr, trace.Tail(evs, flightLast))
}

// config is one simcheck run, as the flags set it.
type config struct {
	object, impl, mode          string
	threads, ops, rounds, batch int
	lin                         v2.Options // engine and per-key partitioning that decide histories
	seed                        uint64     // 0 = free-running goroutines, else deterministic schedules
	preempt                     int        // forced-preemption budget per seeded schedule
}

func main() {
	c := config{lin: v2.DefaultOptions()}
	flag.StringVar(&c.object, "object", "stack", "object to check: stack, queue, fmul, map (striped)")
	flag.StringVar(&c.impl, "impl", "sim", "implementation (stack: sim|treiber|elimination|clh|fc; queue: sim|ms|twolock|fc; fmul: psim|pool|clh|mcs|lockfree|fc|herlihy|combtree; map: sim)")
	flag.StringVar(&c.mode, "mode", "stress", "check mode: stress or linearize")
	flag.IntVar(&c.threads, "threads", 8, "concurrent processes")
	flag.IntVar(&c.ops, "ops", 5000, "operations per process (stress mode)")
	flag.IntVar(&c.rounds, "rounds", 100, "histories to check (linearize mode)")
	flag.IntVar(&flightLast, "flight-last", 64, "max flight-recorder events dumped to stderr on failure")
	flag.IntVar(&c.batch, "batch", 1, "drive batched entry points with vectors of this size (1 = single-op paths)")
	engine := flag.String("engine", "forward",
		"linearize-mode checker: forward, search, or both (cross-validate); forward tracks at most "+
			"64 concurrently open operations, so linearize mode caps -batch at 21 (search: 8)")
	flag.BoolVar(&c.lin.Partition, "partition", true, "check map histories per key; false uses the whole-map spec (same verdict, different code path)")
	flag.Uint64Var(&c.seed, "sched-seed", 0, "deterministic schedule seed for linearize mode (0 = free-running goroutines)")
	flag.IntVar(&c.preempt, "sched-preempt", -1, "max forced preemptions per seeded schedule (-1 = consider a switch at every point)")
	flag.Parse()

	var err error
	if c.lin.Engine, err = v2.ParseEngine(*engine); err == nil {
		err = c.validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simcheck: %v\n", err)
		os.Exit(2)
	}

	// Linearize mode always runs 3-process histories; size the rings for
	// whichever mode needs more. Every operation is recorded (no sampling):
	// a post-mortem with holes is not a post-mortem.
	flight = trace.New(max(c.threads, 3), trace.WithSampleEvery(1))
	if !c.run() {
		dumpFlight()
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("OK")
}

// object is one -object entry: the -impl values it accepts and its two mode
// bodies. Both bodies build fresh instances of c.impl driven at width
// c.batch, with the flight recorder attached.
type object struct {
	what    string                        // the object's name in history verdicts
	impls   []string                      // accepted -impl values
	noBatch string                        // why an impl without batched entry points refuses -batch > 1
	stress  func(c config) bool           // false: a violation was printed
	history func(c config, r int) process // round r's fresh 3-process body; nil: no batched entry points
}

// process runs process id's share of one linearize history, recording every
// call on rec. A non-nil error is a failure the history itself cannot show
// (a fmul batch whose result chain is broken).
type process func(rec *check.Recorder, id int) error

// instance is one built object of a typed table entry.
type instance struct {
	stress  func(c config) bool
	process process
}

// newObject builds a table entry from typed impl constructors. drive
// adapts a fresh instance to width b, returning one with a nil process when
// it has no batched entry points.
func newObject[T any](what, noBatch string, impls map[string]func(n int) T, drive func(o T, b int) instance) object {
	build := func(c config, n int) instance { return drive(attachFlight(impls[c.impl](n)), c.batch) }
	return object{
		what: what, noBatch: noBatch, impls: slices.Collect(maps.Keys(impls)),
		stress:  func(c config) bool { return build(c, c.threads).stress(c) },
		history: func(c config, _ int) process { return build(c, 3).process },
	}
}

// objects is simcheck's one object table: -object selects the entry.
var objects = map[string]object{
	"stack": newObject("stack", "has no batched entry points (-batch needs sim)",
		map[string]func(int) stack.Interface[uint64]{
			"sim":         func(n int) stack.Interface[uint64] { return stack.NewSimStack[uint64](n) },
			"treiber":     func(n int) stack.Interface[uint64] { return stack.NewTreiber[uint64](n) },
			"elimination": func(n int) stack.Interface[uint64] { return stack.NewElimination[uint64](n) },
			"clh":         func(n int) stack.Interface[uint64] { return stack.NewCLHStack[uint64](n) },
			"fc":          func(n int) stack.Interface[uint64] { return stack.NewFCStack[uint64](n, 0, 0) },
		}, stackPairs),
	"queue": newObject("queue", "has no batched entry points (-batch needs sim)",
		map[string]func(int) queue.Interface[uint64]{
			"sim":     func(n int) queue.Interface[uint64] { return queue.NewSimQueue[uint64](n) },
			"ms":      func(n int) queue.Interface[uint64] { return queue.NewMSQueue[uint64](n) },
			"twolock": func(n int) queue.Interface[uint64] { return queue.NewTwoLockQueue[uint64](n) },
			"fc":      func(n int) queue.Interface[uint64] { return queue.NewFCQueue[uint64](n, 0, 0) },
		}, queuePairs),
	"fmul": newObject("Fetch&Multiply", "has no ApplyBatch (-batch needs psim or pool)",
		map[string]func(int) fmul.Interface{
			"psim":     func(n int) fmul.Interface { return fmul.NewPSim(n) },
			"pool":     func(n int) fmul.Interface { return fmul.NewPSimPooled(n) },
			"clh":      func(n int) fmul.Interface { return fmul.NewCLH(n) },
			"mcs":      func(n int) fmul.Interface { return fmul.NewMCS(n) },
			"lockfree": func(n int) fmul.Interface { return fmul.NewLockFree(n) },
			"fc":       func(n int) fmul.Interface { return fmul.NewFC(n, 0, 0) },
			"herlihy":  func(n int) fmul.Interface { return fmul.NewHerlihy(n) },
			"combtree": func(n int) fmul.Interface { return fmul.NewCombTree(n) },
		}, fmulOps),
	"map": {what: "map", impls: []string{"sim"}, stress: mapStress, history: mapHistory},
}

// validate refuses, with a one-line reason, a configuration simcheck would
// otherwise crash on, silently reshape, or pass without checking anything.
func (c config) validate() error {
	maxBatch := 21 // the package comment derives both caps
	if c.lin.Engine == v2.EngineSearch {
		maxBatch = 8
	}
	o, ok := objects[c.object]
	switch {
	case min(c.threads, c.ops, c.rounds, c.batch) < 1:
		return fmt.Errorf("-threads, -ops, -rounds and -batch must be at least 1 (got %d, %d, %d, %d)",
			c.threads, c.ops, c.rounds, c.batch)
	case !ok:
		return fmt.Errorf("unknown object %q", c.object)
	case !slices.Contains(o.impls, c.impl):
		return fmt.Errorf("unknown %s impl %q", c.object, c.impl)
	case c.mode != "stress" && c.mode != "linearize":
		return fmt.Errorf("unknown mode %q", c.mode)
	case c.mode == "linearize" && c.batch > maxBatch:
		return fmt.Errorf("linearize mode caps -batch at %d for -engine %s (got %d)", maxBatch, c.lin.Engine, c.batch)
	case o.history(c, 0) == nil:
		return fmt.Errorf("%s impl %q %s", c.object, c.impl, o.noBatch)
	}
	return nil
}

// run runs a validated configuration and reports whether every check
// passed. Linearize mode is one loop for every object: per round, roundCfg
// → record → report, with sched.Minimize on a seeded failure.
func (c config) run() bool {
	o := objects[c.object]
	if c.mode == "stress" {
		return o.stress(c)
	}
	for r := 0; r < c.rounds; r++ {
		cfg := c.roundCfg(r)
		h, err := c.record(o, r, cfg)
		if err != nil {
			fmt.Printf("round %d: %v\n", r, err)
			return false
		}
		if !c.report(r, o, h, cfg) {
			return false
		}
	}
	return true
}

// record runs one 3-process history of round r under cfg. Every body
// records at most six calls of at most c.batch elements per process.
func (c config) record(o object, r int, cfg sched.Config) ([]check.Operation, error) {
	body := o.history(c, r)
	rec := check.NewRecorder(6 * cfg.Threads * c.batch)
	errs := make([]error, cfg.Threads)
	runWorkers(cfg, func(id int) { errs[id] = body(rec, id) })
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("process %d %w", id, err)
		}
	}
	return rec.Operations(), nil
}

// roundCfg derives round r's schedule config: inert with -sched-seed=0
// (runWorkers falls back to free goroutines), else a distinct per-round
// seed derived from the flag, so the whole run replays from -sched-seed and
// any failing round from its derived seed with -rounds 1.
func (c config) roundCfg(r int) sched.Config {
	if c.seed == 0 {
		return sched.Config{Threads: 3}
	}
	s := c.seed + uint64(r)*0x9e3779b97f4a7c15
	if s == 0 {
		s = 1
	}
	return sched.Config{Seed: s, Threads: 3, Preemptions: c.preempt}
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

// report validates one linearize-mode history. A rejection prints the
// history in the replayable text format plus, for seeded runs, a minimized
// schedule that still reproduces it. An undecided history only warns.
func (c config) report(r int, o object, h []check.Operation, cfg sched.Config) bool {
	err := v2.CheckHistory(h, c.lin)
	if err == nil {
		return true
	}
	if !v2.Rejected(err) {
		fmt.Fprintf(os.Stderr, "simcheck: round %d: %s history not decided: %v\n", r, o.what, err)
		return true
	}
	fmt.Printf("round %d: non-linearizable %s history: %v\n", r, o.what, err)
	os.Stdout.Write(v2.FormatHistory(h))
	if cfg.Seed != 0 {
		min := sched.Minimize(cfg, func(s sched.Config) bool {
			h, _ := c.record(o, r, s)
			return v2.Rejected(v2.CheckHistory(h, c.lin))
		})
		fmt.Printf("replay: -mode linearize -rounds 1 -sched-seed=%d -sched-preempt=%d (minimized from %s)\n",
			min.Seed, min.Preemptions, cfg)
	}
	return false
}

// batched is the produce/consume surface shared by the stack
// (PushBatch/PopBatch) and the queue (EnqueueBatch/DequeueBatch).
type batched struct {
	produce func(id int, vals []uint64)
	consume func(id, want int, out []uint64) []uint64
}

// batchOfOne adapts single-op produce/consume entry points onto the batched
// surface, one call per element.
func batchOfOne(produce func(int, uint64), consume func(int) (uint64, bool)) batched {
	return batched{
		produce: func(id int, vals []uint64) {
			for _, v := range vals {
				produce(id, v)
			}
		},
		consume: func(id, want int, out []uint64) []uint64 {
			for ; want > 0; want-- {
				if v, ok := consume(id); ok {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// stackPairs drives a stack through PushBatch/PopBatch, or at b = 1
// through Push/Pop as batches of one.
func stackPairs(s stack.Interface[uint64], b int) instance {
	if b == 1 {
		return pairs(check.OpPush, check.OpPop, b, batchOfOne(s.Push, s.Pop))
	}
	v, ok := s.(interface {
		PushBatch(id int, vals []uint64)
		PopBatch(id, want int, out []uint64) []uint64
	})
	if !ok {
		return instance{}
	}
	return pairs(check.OpPush, check.OpPop, b, batched{v.PushBatch, v.PopBatch})
}

// queuePairs drives a queue through EnqueueBatch/DequeueBatch, or at b = 1
// through Enqueue/Dequeue as batches of one.
func queuePairs(q queue.Interface[uint64], b int) instance {
	if b == 1 {
		return pairs(check.OpEnqueue, check.OpDequeue, b, batchOfOne(q.Enqueue, q.Dequeue))
	}
	v, ok := q.(interface {
		EnqueueBatch(id int, vals []uint64)
		DequeueBatch(id, want int, out []uint64) []uint64
	})
	if !ok {
		return instance{}
	}
	return pairs(check.OpEnqueue, check.OpDequeue, b, batched{v.EnqueueBatch, v.DequeueBatch})
}

// pairs drives a produce/consume object at width b. Stress mode alternates
// b-wide produce and consume calls of unique tagged values, drains the rest
// and checks that every value was consumed exactly once. A linearize
// process makes three single-op pairs at b = 1, one b-wide pair otherwise,
// each element recorded as its own operation in its call's window.
// Consume batches report hits first (at most one chunk is involved at
// these sizes, and within a chunk misses are a suffix).
func pairs(prodOp, consOp string, b int, p batched) instance {
	stress := func(c config) bool {
		consumed := make([][]uint64, c.threads)
		runWorkers(sched.Config{Threads: c.threads}, func(id int) {
			vals, out := make([]uint64, 0, b), make([]uint64, 0, b)
			for k := 0; k < c.ops; k += b {
				vals = vals[:0]
				for j := 0; j < b && k+j < c.ops; j++ {
					vals = append(vals, uint64(id*c.ops+k+j)+1)
				}
				p.produce(id, vals)
				out = p.consume(id, len(vals), out[:0])
				consumed[id] = append(consumed[id], out...)
			}
		})
		for out := p.consume(0, b, nil); len(out) > 0; out = p.consume(0, b, out[:0]) {
			consumed[0] = append(consumed[0], out...)
		}
		got := make(map[uint64]int)
		for _, v := range slices.Concat(consumed...) {
			got[v]++
		}
		if len(got) != c.threads*c.ops {
			fmt.Printf("conservation: %d distinct values consumed, want %d\n", len(got), c.threads*c.ops)
			return false
		}
		for v, n := range got {
			if n != 1 {
				fmt.Printf("duplication: value %d consumed %d times\n", v, n)
				return false
			}
		}
		return true
	}
	process := func(rec *check.Recorder, id int) error {
		calls := 1
		if b == 1 {
			calls = 3
		}
		vals, out, slots := make([]uint64, b), make([]uint64, 0, b), make([]int, b)
		for k := 0; k < calls; k++ {
			for j := range vals {
				vals[j] = uint64((id*calls+k)*b+j) + 1
				slots[j] = rec.Invoke(id, prodOp, vals[j])
			}
			p.produce(id, vals)
			for _, sl := range slots {
				rec.Return(sl, 0, false)
			}
			for j := range slots {
				slots[j] = rec.Invoke(id, consOp, 0)
			}
			out = p.consume(id, b, out[:0])
			for j, sl := range slots {
				if j < len(out) {
					rec.Return(sl, out[j], true)
				} else {
					rec.Return(sl, 0, false)
				}
			}
		}
		return nil
	}
	return instance{stress: stress, process: process}
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

// fmulOps drives a Fetch&Multiply through ApplyBatch, or at b = 1 through
// Apply as a batch of one, checking every call's chain. Stress mode
// multiplies by 3 throughout and checks the final product. A linearize
// process makes three calls of b odd factors, each recorded as ONE
// Fetch&Multiply of their product returning res[0]: if the chain holds, the
// vector is indistinguishable from that single operation to everyone else.
func fmulOps(o fmul.Interface, b int) instance {
	apply := func(id int, fs, res []uint64) []uint64 { return append(res, o.Apply(id, fs[0])) }
	if b > 1 {
		v, ok := o.(interface {
			ApplyBatch(id int, fs, res []uint64) []uint64
		})
		if !ok {
			return instance{}
		}
		apply = v.ApplyBatch
	}
	stress := func(c config) bool {
		var bad atomic.Bool
		runWorkers(sched.Config{Threads: c.threads}, func(id int) {
			fs, res := make([]uint64, b), make([]uint64, 0, b)
			for k := 0; k < c.ops; k += len(fs) {
				fs = fs[:min(b, c.ops-k)]
				for j := range fs {
					fs[j] = 3
				}
				if res = apply(id, fs, res[:0]); !chainConsistent(fs, res) {
					bad.Store(true)
				}
			}
		})
		if bad.Load() {
			fmt.Println("batch chain inconsistency: res[j+1] != res[j]*f[j] inside one ApplyBatch")
			return false
		}
		want := uint64(1)
		for range c.threads * c.ops {
			want *= 3
		}
		if got := o.Read(); got != want {
			fmt.Printf("product mismatch: got %#x want %#x\n", got, want)
			return false
		}
		return true
	}
	process := func(rec *check.Recorder, id int) error {
		fs, res := make([]uint64, b), make([]uint64, 0, b)
		var err error
		for k := 0; k < 3; k++ {
			prod := uint64(1)
			for j := range fs {
				fs[j] = uint64(2*(id*b+j)+3) | 1
				prod *= fs[j]
			}
			slot := rec.Invoke(id, check.OpMul, prod)
			res = apply(id, fs, res[:0])
			if !chainConsistent(fs, res) {
				err = errors.New("saw an inconsistent batch chain")
			}
			rec.Return(slot, res[0], false)
		}
		return err
	}
	return instance{stress: stress, process: process}
}

// newMap builds a striped map wired to the flight recorder (every stripe
// shares the one ring — multi-key calls touch stripes sequentially, so the
// single-writer-per-lane discipline holds).
func newMap(n, stripes int) *simmap.Map[uint64, uint64] {
	m := simmap.New[uint64, uint64](n, stripes)
	m.Attach(nil, "", nil, flight)
	return m
}

// mapStress checks the striped map: every thread owns a DISJOINT key range
// on one shared 16-stripe Map (stripes stay contended even though keys
// are not) and hammers it with batched MSet/MDelete; because
// each key has a single writer, its final binding is deterministic and
// verified with MGet afterwards.
func mapStress(c config) bool {
	const keysPerThread = 64
	m := newMap(c.threads, 16)
	runWorkers(sched.Config{Threads: c.threads}, func(id int) {
		base := uint64(id * keysPerThread)
		keys, vals := make([]uint64, 0, keysPerThread), make([]uint64, 0, keysPerThread)
		for k := 0; k < c.ops; k += c.batch {
			keys, vals = keys[:0], vals[:0]
			for j := 0; j < c.batch && k+j < c.ops; j++ {
				key := base + uint64((k+j)%keysPerThread)
				keys = append(keys, key)
				vals = append(vals, uint64(k+j)<<16|key)
			}
			m.MSet(id, keys, vals)
			if k%3 == 0 {
				m.MDelete(id, keys)
			}
		}
		// Deterministic final pass: bind every owned key, then delete the
		// multiples of three.
		keys, vals = keys[:0], vals[:0]
		var dels []uint64
		for key := base; key < base+keysPerThread; key++ {
			keys = append(keys, key)
			vals = append(vals, key^0xabcdef)
			if key%3 == 0 {
				dels = append(dels, key)
			}
		}
		m.MSet(id, keys, vals)
		m.MDelete(id, dels)
	})
	keys := make([]uint64, keysPerThread)
	for id := 0; id < c.threads; id++ {
		for j := range keys {
			keys[j] = uint64(id*keysPerThread + j)
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
}

// mapHistory is the map's linearize body: small adversarial histories on a
// 4-key space, each batched call recorded as per-key operations spanning
// the call's window, checked with the compositional v2 checker (per key by
// default; -partition=false routes the same history through the whole-map
// spec instead).
func mapHistory(c config, r int) process {
	m := newMap(3, 2)
	return func(rec *check.Recorder, id int) error {
		// Tiny deterministic PRNG so failures replay.
		seed := uint64(r*3+id)*2654435761 + 1
		next := func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed >> 33
		}
		keys, vals, args := make([]uint64, c.batch), make([]uint64, c.batch), make([]uint64, c.batch)
		slots := make([]int, c.batch)
		// call records one batched call: element j invokes op on args[j]
		// and returns the call's j-th (value, ok) pair.
		call := func(op string, f func() ([]uint64, []bool)) {
			for j := range slots {
				slots[j] = rec.Invoke(id, op, args[j])
			}
			vs, oks := f()
			for j, sl := range slots {
				rec.Return(sl, vs[j], oks[j])
			}
		}
		// Call 1: a batched MSet on random keys of 0..3.
		for j := range keys {
			keys[j], vals[j] = next()%4, next()%1000+1
			args[j] = keys[j]<<32 | vals[j]
		}
		call(check.OpMapPut, func() ([]uint64, []bool) { return m.MSet(id, keys, vals) })
		// Call 2: a batched MGet or MDelete, alternating.
		for j := range keys {
			keys[j] = next() % 4
			args[j] = keys[j] << 32
		}
		if (r+id)%2 == 0 {
			call(check.OpMapGet, func() ([]uint64, []bool) { return m.MGet(id, keys) })
		} else {
			call(check.OpMapDel, func() ([]uint64, []bool) { return m.MDelete(id, keys) })
		}
		return nil
	}
}
