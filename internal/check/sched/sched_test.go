package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	v2 "repro/internal/check/v2"
	"repro/internal/core"
	"repro/internal/fmul"
	"repro/internal/lsim"
	"repro/internal/queue"
)

// runAdder drives a fetch-and-add counter under cfg — add(pid) adds 1 and
// returns the previous value — and returns the recorded history.
func runAdder(cfg Config, opsPer int, add func(pid int) uint64) ([]check.Operation, Stats) {
	rec := check.NewRecorder(cfg.Threads * opsPer)
	st := Exec(cfg, func(pid int) {
		for k := 0; k < opsPer; k++ {
			slot := rec.Invoke(pid, check.OpAdd, 1)
			prev := add(pid)
			rec.Return(slot, prev, false)
		}
	})
	return rec.Operations(), st
}

// runCounter drives a fresh PSim fetch-and-add counter under cfg and
// returns the recorded history.
func runCounter(cfg Config, opsPer int) ([]check.Operation, Stats) {
	u := core.NewPSim(cfg.Threads, uint64(0), func(st *uint64, pid int, arg uint64) uint64 {
		prev := *st
		*st += arg
		return prev
	})
	return runAdder(cfg, opsPer, func(pid int) uint64 { return u.Apply(pid, 1) })
}

// runPooledCounter is runCounter on the pooled P-Sim.
func runPooledCounter(cfg Config, opsPer int) ([]check.Operation, Stats) {
	u := core.NewPSimWords(cfg.Threads, 0, []uint64{0}, func(st []uint64, _ int, arg uint64) uint64 {
		prev := st[0]
		st[0] += arg
		return prev
	})
	return runAdder(cfg, opsPer, func(pid int) uint64 { return u.Apply(pid, 1) })
}

// runLSimCounter is runCounter on L-Sim, the counter one item.
func runLSimCounter(cfg Config, opsPer int) ([]check.Operation, Stats) {
	l := lsim.New[uint64, uint64, uint64](cfg.Threads)
	a := l.NewRootItem(0)
	add := func(m *lsim.Mem[uint64, uint64, uint64], arg uint64) uint64 {
		v := m.Read(a)
		m.Write(a, v+arg)
		return v
	}
	return runAdder(cfg, opsPer, func(pid int) uint64 { return l.ApplyOp(pid, add, 1) })
}

func TestExecReplaysIdentically(t *testing.T) {
	cfg := Config{Seed: 0xfeedface, Threads: 3, Preemptions: -1}
	h1, s1 := runCounter(cfg, 8)
	h2, s2 := runCounter(cfg, 8)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("same seed, different histories:\n%s\nvs\n%s", v2.FormatHistory(h1), v2.FormatHistory(h2))
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if s1.Points == 0 {
		t.Fatal("no instrumented yield points reached — is the core hook wired?")
	}
}

func TestExecSeedsExploreDifferentInterleavings(t *testing.T) {
	distinct := make(map[string]bool)
	for seed := uint64(0); seed < 10; seed++ {
		h, _ := runCounter(Config{Seed: seed, Threads: 3, Preemptions: -1}, 6)
		distinct[string(v2.FormatHistory(h))] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("10 seeds produced %d distinct interleavings — scheduler is not steering", len(distinct))
	}
}

func TestExecHistoriesAreLinearizable(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		h, _ := runCounter(Config{Seed: seed, Threads: 4, Preemptions: -1}, 6)
		if err := v2.Check(h); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, v2.FormatHistory(h))
		}
	}
}

func TestExecPreemptionBudget(t *testing.T) {
	_, st := runCounter(Config{Seed: 7, Threads: 3, Preemptions: 0}, 5)
	if st.Switches != 0 {
		t.Fatalf("budget 0 took %d switches", st.Switches)
	}
	if st.Points == 0 {
		t.Fatal("no yield points with budget 0 — instrumentation missing")
	}
	_, st = runCounter(Config{Seed: 7, Threads: 3, Preemptions: 5}, 5)
	if st.Switches > 5 {
		t.Fatalf("budget 5 took %d switches", st.Switches)
	}
}

// runQueueScenario drives a fresh SimQueue through cfg's schedule: each
// worker enqueues `per` unique values, then dequeues `per` times. Shared
// with FuzzSchedule.
func runQueueScenario(cfg Config, per int) []check.Operation {
	q := queue.NewSimQueue[uint64](cfg.Threads)
	rec := check.NewRecorder(cfg.Threads * per * 2)
	Exec(cfg, func(pid int) {
		for k := 0; k < per; k++ {
			v := uint64(pid*100 + k + 1)
			slot := rec.Invoke(pid, check.OpEnqueue, v)
			q.Enqueue(pid, v)
			rec.Return(slot, 0, false)
		}
		for k := 0; k < per; k++ {
			slot := rec.Invoke(pid, check.OpDequeue, 0)
			v, ok := q.Dequeue(pid)
			rec.Return(slot, v, ok)
		}
	})
	return rec.Operations()
}

// TestSimQueueUnderAdversarialSchedules drives the two-instance SimQueue
// protocol through many seeded schedules (covering its own announce,
// hazard-acquire, and CAS preemption points) and checks every resulting
// history with the queue axiom checker.
func TestSimQueueUnderAdversarialSchedules(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		cfg := Config{Seed: seed, Threads: 3, Preemptions: -1}
		hist := runQueueScenario(cfg, 4)
		if err := v2.ForwardQueue(hist); err != nil {
			t.Fatalf("seed %d (%v): %v\n%s", seed, cfg, err, v2.FormatHistory(hist))
		}
	}
}

// TestLSimUnderAdversarialSchedules drives L-Sim's join/attempt/leave
// protocol through many seeded schedules (its announce, collect and CAS
// preemption points) and checks every resulting counter history.
func TestLSimUnderAdversarialSchedules(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		cfg := Config{Seed: seed, Threads: 3, Preemptions: -1}
		hist, st := runLSimCounter(cfg, 4)
		if st.Switches == 0 {
			t.Fatalf("seed %d: no switches — L-Sim reached no preemption point", seed)
		}
		if err := v2.Check(hist); err != nil {
			t.Fatalf("seed %d (%v): %v\n%s", seed, cfg, err, v2.FormatHistory(hist))
		}
	}
}

// TestPooledPSimReachesPreemptionPoints: the pooled P-Sim yields at the
// same announce/collect/CAS boundaries as PSim, so a seeded schedule
// interleaves its combining rounds instead of running workers one after
// another.
func TestPooledPSimReachesPreemptionPoints(t *testing.T) {
	o := fmul.NewPSimPooled(3)
	st := Exec(Config{Seed: 0xbeef, Threads: 3, Preemptions: -1}, func(pid int) {
		for k := 0; k < 6; k++ {
			o.Apply(pid, 3)
		}
		o.ApplyBatch(pid, []uint64{5, 7}, nil)
	})
	if st.Points == 0 || st.Switches == 0 {
		t.Fatalf("pooled P-Sim under Exec: %+v, want points and switches", st)
	}
	const each = 3 * 3 * 3 * 3 * 3 * 3 * 5 * 7 // one worker's factors
	if got := o.Read(); got != each*each*each {
		t.Fatalf("state = %d, want %d", got, each*each*each)
	}
}

func TestMinimize(t *testing.T) {
	probes := 0
	fails := func(c Config) bool {
		probes++
		return c.Preemptions < 0 || c.Preemptions >= 7
	}
	got := Minimize(Config{Seed: 1, Threads: 2, Preemptions: -1}, fails)
	if got.Preemptions != 7 {
		t.Fatalf("minimized to %d, want 7 (%d probes)", got.Preemptions, probes)
	}

	// Already-passing configs come back unchanged.
	cfg := Config{Seed: 1, Threads: 2, Preemptions: 3}
	if got := Minimize(cfg, func(Config) bool { return false }); got != cfg {
		t.Fatalf("passing config changed: %+v", got)
	}

	// A failure independent of scheduling minimizes to budget 0.
	if got := Minimize(cfg, func(Config) bool { return true }); got.Preemptions != 0 {
		t.Fatalf("always-failing minimized to %d, want 0", got.Preemptions)
	}

	// Only the unbounded schedule fails: config must survive untouched.
	unbounded := Config{Seed: 9, Threads: 2, Preemptions: -1}
	if got := Minimize(unbounded, func(c Config) bool { return c.Preemptions < 0 }); got != unbounded {
		t.Fatalf("unbounded-only failure changed config: %+v", got)
	}
}

func TestConfigString(t *testing.T) {
	s := Config{Seed: 0x2a, Threads: 4, Preemptions: 3}.String()
	want := "sched.Config{Seed: 0x2a, Threads: 4, Preemptions: 3}"
	if s != want {
		t.Fatalf("got %q, want %q", s, want)
	}
	if fmt.Sprintf("%v", Config{}) == "" {
		t.Fatal("empty config must still render")
	}
}
