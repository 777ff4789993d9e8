package sched

import (
	"testing"

	"repro/internal/check"
	v2 "repro/internal/check/v2"
)

// FuzzSchedule lets the fuzzer steer the deterministic scheduler: each
// input is a (seed, preemption budget) pair, and every client of the
// combining round runs under that schedule — the SimQueue scenario, checked
// by the queue axiom checker, and the P-Sim, pooled P-Sim and L-Sim
// counters, checked for linearizability. A failure is reported with its
// minimized, replayable config — paste the sched.Config literal into a
// test to reproduce the exact interleaving.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(1), int8(-1))
	f.Add(uint64(42), int8(3))
	f.Add(uint64(0xdeadbeef), int8(0))
	f.Add(uint64(0x5eed), int8(1))
	f.Fuzz(func(t *testing.T, seed uint64, budget int8) {
		cfg := Config{Seed: seed, Threads: 3, Preemptions: int(budget)}
		hist := runQueueScenario(cfg, 3)
		if err := v2.ForwardQueue(hist); err != nil {
			min := Minimize(cfg, func(c Config) bool {
				return v2.Rejected(v2.ForwardQueue(runQueueScenario(c, 3)))
			})
			t.Fatalf("non-linearizable history under %v\nminimized replay: %v\nverdict: %v\nhistory:\n%s",
				cfg, min, err, v2.FormatHistory(hist))
		}
		counters := []struct {
			name string
			run  func(Config, int) ([]check.Operation, Stats)
		}{{"P-Sim", runCounter}, {"pooled P-Sim", runPooledCounter}, {"L-Sim", runLSimCounter}}
		for _, c := range counters {
			hist, _ := c.run(cfg, 3)
			if err := v2.Check(hist); err != nil {
				min := Minimize(cfg, func(cc Config) bool {
					h, _ := c.run(cc, 3)
					return v2.Rejected(v2.Check(h))
				})
				t.Fatalf("%s: non-linearizable history under %v\nminimized replay: %v\nverdict: %v\nhistory:\n%s",
					c.name, cfg, min, err, v2.FormatHistory(hist))
			}
		}
	})
}
