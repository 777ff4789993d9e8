package main

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/harness"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-1", "1,,2"} {
		if _, err := parseThreads(bad); err == nil {
			t.Fatalf("parseThreads(%q) accepted", bad)
		}
	}
}

// TestEveryExperimentRuns runs each entry of the experiment table at a
// small scale, under a batched axes set and one whose largest batch is 1:
// each must produce results, every speedup target must name a row it
// produced (a missing row prints "0.00x (at 0 threads)" for every
// baseline), and the collected map must render as JSON that parses.
// Unknown names are refused before anything runs.
func TestEveryExperimentRuns(t *testing.T) {
	if _, err := lookup("fig2,nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	cfg := harness.Config{Threads: []int{1, 2}, TotalOps: 400, MaxWork: 16, Reps: 1, Seed: 1}
	for _, ax := range []axes{
		{batches: []int{1, 4}, shards: []int{1, 2}, ingestBatches: []int{1, 8}, vsizes: []int{16, 256}},
		{batches: []int{1}, shards: []int{1, 2}, ingestBatches: []int{1}, vsizes: []int{16}},
	} {
		collected := map[string][]harness.Result{}
		for _, e := range experimentTable {
			res, targets := e.run(cfg, ax)
			if len(res) == 0 {
				t.Fatalf("%s produced no results", e.name)
			}
			for _, target := range targets {
				if !slices.ContainsFunc(res, func(r harness.Result) bool { return r.Impl == target }) {
					t.Errorf("%s (batches %v): speedup target %q names no row it produced", e.name, ax.batches, target)
				}
			}
			collected[e.name] = res
		}
		data, err := harness.BenchJSON(collected)
		if err != nil || !json.Valid(data) {
			t.Fatalf("BenchJSON = %v; valid JSON: %v", err, json.Valid(data))
		}
	}
}
