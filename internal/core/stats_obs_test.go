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

// TestStatsAggregateDeltaRace pins the snapshot-only contract of
// StatsPlane.Aggregate and obs.Registry.Delta (meant for -race): with
// per-slot writers, concurrent Aggregate calls and a registry Delta reader
// all running, every read must be memory-safe (atomic, never torn). No
// plane is ever reset, so successive aggregates never shrink, no aggregate
// exceeds the increments performed, and the Delta reader's intervals add
// up, with a last quiescent Delta, to exactly the totals written.
func TestStatsAggregateDeltaRace(t *testing.T) {
	const n, perThread = 4, 5000
	p := core.NewStatsPlane(n)
	reg := obs.NewRegistry()
	p.Attach(reg, "plane", nil, nil)

	// ceiling bounds what any counter can ever have seen (Combined gets
	// +2 per iteration, the rest +1).
	const ceiling = 2 * n * perThread

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // aggregate reader: monotone and bounded
		defer aux.Done()
		var prev core.Stats
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
			if s.Ops < prev.Ops || s.CASSuccesses < prev.CASSuccesses || s.Combined < prev.Combined {
				t.Errorf("aggregate shrank: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()
	sums := map[string]uint64{}
	go func() { // delta reader: the only Delta caller, so intervals are disjoint
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, v := range reg.Delta().Counters {
				sums[name] += v
			}
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

	// Quiescent: the plane and the summed deltas account exactly.
	if s := p.Aggregate(); s.Ops != n*perThread || s.CASSuccesses != n*perThread || s.Combined != 2*n*perThread {
		t.Fatalf("quiescent aggregate = %+v, want ops=cas=%d combined=%d", s, n*perThread, 2*n*perThread)
	}
	for name, v := range reg.Delta().Counters {
		sums[name] += v
	}
	for name, want := range map[string]uint64{
		"plane_ops_total":         n * perThread,
		"plane_cas_success_total": n * perThread,
		"plane_combined_total":    2 * n * perThread,
	} {
		if sums[name] != want {
			t.Fatalf("deltas of %s sum to %d, want %d", name, sums[name], want)
		}
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

// TestPlaneSamplingDrivesTracer: the stats plane draws one sampling decision
// per operation and the flight recorder follows it. With a recorder at
// 1-in-4, 100 operations at n = 1 leave round/served and per-round instant
// events for exactly the 25 the recorder sampled (ops 0, 4, 8, …); with no
// recorder, the tracer records all 100. Slow-path events (a recycling miss)
// are recorded on every operation either way, and the watchdog's progress
// counters count every operation.
func TestPlaneSamplingDrivesTracer(t *testing.T) {
	const ops = 100
	for _, tc := range []struct {
		name   string
		every  int // recorder sampling period; 0 = no recorder
		events int
	}{{"recorder-1-in-4", 4, 25}, {"no-recorder", 0, ops}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var rec *obs.SimRecorder
			if tc.every > 0 {
				rec = obs.NewSimRecorder(reg, "p", 1)
				rec.SetSampleEvery(tc.every)
			}
			tr := trace.New(1)
			p := core.NewStatsPlane(1)
			p.Attach(reg, "p", rec, tr)
			for k := 0; k < ops; k++ {
				op := p.Start(0)
				p.CASFailed(0, 0, 0)
				p.Recycled(0, true, 0, uint64(k))
				if k%8 == 0 {
					p.Committed(0, op, 1, uint64(k)+1, 1, 1)
				} else {
					p.Served(0, op, 1)
				}
			}
			kinds := map[trace.Kind]int{}
			for _, ev := range tr.Snapshot() {
				kinds[ev.Kind]++
				if ev.Kind == trace.KindRound && tc.every > 0 && (ev.A-1)%uint64(tc.every) != 0 {
					t.Fatalf("round event of op %d, which the recorder did not sample", ev.A-1)
				}
			}
			if got := kinds[trace.KindRound] + kinds[trace.KindServed]; got != tc.events {
				t.Fatalf("round+served events = %d (kinds %v), want %d", got, kinds, tc.events)
			}
			if got := kinds[trace.KindCASFail]; got != tc.events {
				t.Fatalf("cas_fail events = %d, want %d", got, tc.events)
			}
			if got := kinds[trace.KindRecycleMiss]; got != ops {
				t.Fatalf("recycle_miss events = %d, want %d (never sampled)", got, ops)
			}
			if tc.every > 0 {
				if lat := reg.Snapshot().Histograms["p_op_latency_ns"]; lat.Count != uint64(tc.events) {
					t.Fatalf("recorder sampled %d ops, tracer %d; want the same draw", lat.Count, tc.events)
				}
			}
			if s, c := tr.Progress(0); s != ops || c != ops {
				t.Fatalf("progress = %d,%d, want %d,%d", s, c, ops, ops)
			}
		})
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

// TestOneEndStampPerOp: with both sampled channels attached, an operation's
// close reads the clock once for both, so the latency the recorder's
// histogram holds for it equals its flight-recorder event's duration, for
// a committed and a served operation alike.
func TestOneEndStampPerOp(t *testing.T) {
	for _, committed := range []bool{true, false} {
		reg := obs.NewRegistry()
		rec := obs.NewSimRecorder(reg, "p", 1)
		rec.SetSampleEvery(1)
		tr := trace.New(1)
		p := core.NewStatsPlane(1)
		p.Attach(reg, "p", rec, tr)
		op := p.Start(0)
		if committed {
			p.Committed(0, op, 1, 1, 1, 1)
		} else {
			p.Served(0, op, 1)
		}
		evs := tr.Snapshot()
		lat := reg.Snapshot().Histograms["p_op_latency_ns"]
		if len(evs) != 1 || lat.Count != 1 {
			t.Fatalf("committed=%v: %d events, %d latency samples, want 1 and 1", committed, len(evs), lat.Count)
		}
		if lat.Sum != uint64(evs[0].Dur) {
			t.Fatalf("committed=%v: histogram latency %d ns, ring event duration %d ns: two end stamps", committed, lat.Sum, evs[0].Dur)
		}
	}
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
			tr := trace.New(n, trace.WithCapacity(8*perThread))
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
