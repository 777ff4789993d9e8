package core_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lsim"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/simmap"
	"repro/internal/spool"
	"repro/internal/stack"
)

// TestConcurrentStatsReads exercises the two stats planes — the aggregate
// core.Stats and the obs registry snapshots — while worker goroutines run
// (meant for -race): readers must see monotone counters, and after
// quiescence the planes must agree with each other and with the accounting
// invariant Ops == CASSuccesses + ServedByOther (every Apply completes
// either by winning its publish CAS or by being helped).
func TestConcurrentStatsReads(t *testing.T) {
	const n, perThread = 4, 2000
	reg := obs.NewRegistry()
	u := core.NewPSim(n, uint64(1), func(st *uint64, _ int, f uint64) uint64 {
		prev := *st
		*st *= f
		return prev
	}, core.WithBackoff[uint64](1, 64))
	// Sample every op so the histograms must agree exactly with the counters.
	rec := obs.NewSimRecorder(reg, "psim", n)
	rec.SetSampleEvery(1)
	u.Attach(reg, "psim", rec, nil)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last core.Stats
			var lastObsOps uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := u.Stats()
				if s.Ops < last.Ops || s.CASSuccesses < last.CASSuccesses ||
					s.CASFailures < last.CASFailures || s.Combined < last.Combined ||
					s.ServedByOther < last.ServedByOther {
					t.Errorf("core stats went backwards: %+v -> %+v", last, s)
					return
				}
				last = s
				snap := reg.Snapshot()
				if ops := snap.Counters["psim_ops_total"]; ops < lastObsOps {
					t.Errorf("obs ops went backwards: %d -> %d", lastObsOps, ops)
					return
				} else {
					lastObsOps = ops
				}
			}
		}()
	}

	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			for k := 0; k < perThread; k++ {
				u.Apply(id, uint64(2*k+3))
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	readers.Wait()

	s := u.Stats()
	if s.Ops != n*perThread {
		t.Fatalf("Ops = %d, want %d", s.Ops, n*perThread)
	}
	if s.Ops != s.CASSuccesses+s.ServedByOther {
		t.Fatalf("Ops (%d) != CASSuccesses (%d) + ServedByOther (%d)",
			s.Ops, s.CASSuccesses, s.ServedByOther)
	}
	// Every operation was applied exactly once, by someone.
	if s.Combined+s.ServedByOther < s.Ops || s.Combined > s.Ops {
		t.Fatalf("combine accounting implausible: %+v", s)
	}

	// The obs plane agrees with the core plane.
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"psim_ops_total":         s.Ops,
		"psim_cas_success_total": s.CASSuccesses,
		"psim_cas_fail_total":    s.CASFailures,
		"psim_combined_total":    s.Combined,
		"psim_served_by_total":   s.ServedByOther,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, core says %d", name, got, want)
		}
	}
	lat := snap.Histograms["psim_op_latency_ns"]
	if lat.Count != s.Ops {
		t.Fatalf("latency samples = %d, want one per op (%d)", lat.Count, s.Ops)
	}
	cd := snap.Histograms["psim_combine_degree"]
	if cd.Count != s.CASSuccesses || cd.Sum != s.Combined {
		t.Fatalf("combine histogram (count=%d sum=%d) disagrees with core (%d, %d)",
			cd.Count, cd.Sum, s.CASSuccesses, s.Combined)
	}
}

// TestStatsResetAggregateRace pins the snapshot-only contract of
// StatsPlane.Reset and Aggregate (meant for -race): with per-slot writers,
// concurrent Aggregate calls, periodic Resets, and a registry Delta reader
// all running, every read must be memory-safe (atomic, never torn) and no
// aggregate or delta may exceed the number of increments ever performed —
// a reset racing a delta window must clamp at zero (obs.Registry.Delta's
// subClamp), never wrap negative.
func TestStatsResetAggregateRace(t *testing.T) {
	const n, perThread = 4, 5000
	p := core.NewStatsPlane(n)
	reg := obs.NewRegistry()
	p.Attach(reg, "plane", nil, nil)

	// ceiling bounds what any counter can ever have seen (Combined gets
	// +2 per iteration, the rest +1).
	const ceiling = 2 * n * perThread

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(3)
	go func() { // aggregate reader
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Aggregate()
			if s.Ops > ceiling || s.CASSuccesses > ceiling || s.Combined > ceiling {
				t.Errorf("aggregate exceeds increments performed: %+v", s)
				return
			}
		}
	}()
	go func() { // delta reader: clamped, so never a wrapped "negative"
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := reg.Delta()
			for name, v := range d.Counters {
				if v > ceiling {
					t.Errorf("delta %s = %d: reset race wrapped negative", name, v)
					return
				}
			}
		}
	}()
	go func() { // periodic resetter
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Reset()
		}
	}()

	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			for k := 0; k < perThread; k++ {
				p.Ops.Inc(id)
				p.CASSuccess.Inc(id)
				p.Combined.Add(id, 2)
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	aux.Wait()

	// Quiescent reset, then quiescent writes: the plane accounts exactly.
	p.Reset()
	p.Ops.Add(0, 7)
	if s := p.Aggregate(); s.Ops != 7 || s.CASSuccesses != 0 {
		t.Fatalf("post-quiescent-reset aggregate = %+v", s)
	}
}

// TestRecorderDefaultSampling: with the default 1-in-64 sampling the counters
// stay exact while the distributions see a thin uniform sample.
func TestRecorderDefaultSampling(t *testing.T) {
	const n, perThread = 2, 1000
	reg := obs.NewRegistry()
	u := core.NewPSim(n, uint64(0), func(st *uint64, _ int, d uint64) uint64 {
		*st += d
		return *st
	})
	u.Attach(reg, "psim", obs.NewSimRecorder(reg, "psim", n), nil)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < perThread; k++ {
				u.Apply(id, 1)
			}
		}(i)
	}
	wg.Wait()

	s := u.Stats()
	snap := reg.Snapshot()
	if s.Ops != n*perThread || snap.Counters["psim_ops_total"] != s.Ops {
		t.Fatalf("counters not exact under sampling: core %d, obs %d",
			s.Ops, snap.Counters["psim_ops_total"])
	}
	lat := snap.Histograms["psim_op_latency_ns"]
	if lat.Count == 0 || lat.Count > s.Ops/16 {
		t.Fatalf("latency samples = %d, want a sparse non-empty sample of %d ops",
			lat.Count, s.Ops)
	}
}

// attachCase is one construction under TestAttach: attach wires reg, a
// recorder and tr through the construction's one Attach method (the
// recorder sampling every op), and op runs process id's k-th operation.
type attachCase struct {
	name string
	// attach returns the op driver; prefix is the metric prefix to attach at.
	attach func(reg *obs.Registry, prefix string, tr *trace.Tracer) (op func(id, k int))
	// exact: one ops_total count per sampled latency observation, and
	// (unless extraRounds) combine-degree observations summing to
	// combined_total.
	exact bool
	// extraRounds: rounds after an operation's first publish apply work the
	// recorder does not observe (L-Sim).
	extraRounds bool
	// lsim: the families <prefix>_lsim_* (counters only) appear as well.
	lsim bool
	// classes: the alloc_* classes the construction's memory plane publishes.
	classes []string
	// recycles: the construction draws round records from the memory plane.
	recycles bool
}

// sampledRec returns a recorder observing every operation.
func sampledRec(reg *obs.Registry, prefix string, n int) *obs.SimRecorder {
	rec := obs.NewSimRecorder(reg, prefix, n)
	rec.SetSampleEvery(1)
	return rec
}

func attachCases(n int) []attachCase {
	add := func(st *uint64, _ int, d uint64) uint64 { *st += d; return *st }
	return []attachCase{
		{name: "Sim", exact: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			u := core.NewSim(n, 8, uint64(0), func(st uint64, _ int, op uint64) (uint64, uint64) { return st + op, st })
			u.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, k int) { u.ApplyOp(id, uint64(k%255)+1) }
		}},
		{name: "PSim", exact: true, classes: []string{"state"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			u := core.NewPSim(n, uint64(0), add, core.WithBackoff[uint64](1, 64))
			u.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, _ int) { u.Apply(id, 1) }
		}},
		{name: "LSim", exact: true, extraRounds: true, classes: []string{"state", "item"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			l := lsim.New[uint64, uint64, uint64](n)
			item := l.NewRootItem(0)
			inc := func(m *lsim.Mem[uint64, uint64, uint64], d uint64) uint64 {
				v := m.Read(item)
				m.Write(item, v+d)
				return v
			}
			l.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, _ int) { l.ApplyOp(id, inc, 1) }
		}},
		{name: "SimQueue", exact: true, classes: []string{"enq_state", "deq_state", "node"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			q := queue.NewSimQueue[uint64](n)
			q.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, k int) {
				if k%2 == 0 {
					q.Enqueue(id, uint64(k))
				} else {
					q.Dequeue(id)
				}
			}
		}},
		{name: "SimStack", exact: true, classes: []string{"state"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			s := stack.NewSimStack[uint64](n)
			s.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, k int) {
				if k%2 == 0 {
					s.Push(id, uint64(k))
				} else {
					s.Pop(id)
				}
			}
		}},
		{name: "Spool", exact: true, classes: []string{"state"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			s := spool.NewEvents(n, spool.Config{SegEvents: 16})
			s.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, k int) { s.Append(id, spool.Event{Payload: uint64(k)}) }
		}},
		{name: "Map", exact: true, classes: []string{"state"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			m := simmap.New[int, int](n, 2)
			m.Attach(reg, p, sampledRec(reg, p, n), tr)
			return func(id, k int) { m.Put(id, k%8, k) }
		}},
		{name: "Tiered", lsim: true, classes: []string{"state", "lsim_state", "lsim_item"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			m := simmap.NewTiered[int](n, 2, 16)
			m.Attach(reg, p, sampledRec(reg, p, n), tr)
			small, large := make([]byte, 4), make([]byte, 32)
			return func(id, k int) {
				if k%2 == 0 {
					m.Put(id, k%8, small)
				} else {
					m.Put(id, 8+k%8, large)
				}
			}
		}},
		{name: "Pipeline", classes: []string{"queue_enq_state", "queue_deq_state", "queue_node", "spool_state"}, recycles: true, attach: func(reg *obs.Registry, p string, tr *trace.Tracer) func(int, int) {
			pl := ingest.New(n, ingest.Config{Batch: 4})
			pl.Attach(reg, p, tr) // recorders keep the default 1-in-64 sampling
			return func(id, k int) {
				pl.Append(id, uint64(k))
				pl.Drain(id, 8)
			}
		}},
	}
}

// sumFamily sums every series of family base (any label block) in snap.
func sumFamily(snap obs.Snapshot, base string) (total uint64, found bool) {
	for name, v := range snap.Counters {
		if b, _ := obs.SplitName(name); b == base {
			total += v
			found = true
		}
	}
	return total, found
}

// histFamily sums the sample counts of every series of histogram family base.
func histFamily(snap obs.Snapshot, base string) (count uint64, found bool) {
	for name, h := range snap.Histograms {
		if b, _ := obs.SplitName(name); b == base {
			count += h.Count
			found = true
		}
	}
	return count, found
}

// TestAttach drives every construction through its one Attach method — a
// registry, a recorder and a flight recorder together — under a few
// contended operations, and checks all three channels report: the exact
// counters (and memory-plane classes) are published, the histograms saw
// samples, and the tracer holds round events with every started operation
// closed.
func TestAttach(t *testing.T) {
	const n, perThread = 3, 200
	for _, tc := range attachCases(n) {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := trace.New(n, trace.WithSampleEvery(1), trace.WithCapacity(8*perThread))
			prefix := strings.ToLower(tc.name)
			op := tc.attach(reg, prefix, tr)
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < perThread; k++ {
						op(id, k)
					}
				}(id)
			}
			wg.Wait()

			snap := reg.Snapshot()
			families := []string{prefix}
			if tc.name == "Pipeline" {
				families = []string{prefix + "_queue", prefix + "_spool"}
			}
			for _, f := range families {
				ops, ok := sumFamily(snap, f+"_ops_total")
				if !ok || ops == 0 {
					t.Fatalf("%s_ops_total = %d (published %v), want > 0", f, ops, ok)
				}
				for _, c := range []string{"_cas_success_total", "_cas_fail_total", "_combined_total", "_served_by_total", "_backoff_grow_total"} {
					if _, ok := sumFamily(snap, f+c); !ok {
						t.Fatalf("%s%s not published", f, c)
					}
				}
				lat, _ := histFamily(snap, f+"_op_latency_ns")
				if cd, _ := histFamily(snap, f+"_combine_degree"); lat == 0 || cd == 0 {
					t.Fatalf("%s histograms: %d latency, %d combine-degree samples; want both > 0", f, lat, cd)
				}
				if tc.exact && lat != ops {
					t.Fatalf("%s: %d latency samples, want one per op (%d)", f, lat, ops)
				}
				if tc.exact && !tc.extraRounds {
					var sum uint64
					for name, h := range snap.Histograms {
						if b, _ := obs.SplitName(name); b == f+"_combine_degree" {
							sum += h.Sum
						}
					}
					if combined, _ := sumFamily(snap, f+"_combined_total"); sum != combined {
						t.Fatalf("%s: combine-degree sum %d, combined_total %d; want equal", f, sum, combined)
					}
				}
			}
			if tc.lsim {
				if ops, _ := sumFamily(snap, prefix+"_lsim_ops_total"); ops == 0 {
					t.Fatalf("%s_lsim_ops_total = 0, want the large tier's ops", prefix)
				}
				if _, ok := snap.Counters[prefix+"_lsim_items_written_total"]; !ok {
					t.Fatalf("%s_lsim_items_written_total not published", prefix)
				}
			}
			for _, c := range tc.classes {
				name := obs.Labeled("alloc_blocks_total", "class", prefix+"_"+c)
				if snap.Counters[name] == 0 {
					t.Fatalf("%s = 0, want the memory plane's issued blocks", name)
				}
			}

			kinds := map[trace.Kind]int{}
			for _, ev := range tr.Snapshot() {
				kinds[ev.Kind]++
			}
			if kinds[trace.KindRound] == 0 {
				t.Fatalf("no round events (kinds %v)", kinds)
			}
			if tc.recycles && kinds[trace.KindRecycleHit]+kinds[trace.KindRecycleMiss] == 0 {
				t.Fatalf("no recycling events (kinds %v)", kinds)
			}
			for id := 0; id < n; id++ {
				if started, committed := tr.Progress(id); started == 0 || started != committed {
					t.Fatalf("pid %d: %d ops started, %d closed; want all closed", id, started, committed)
				}
			}
		})
	}
}
