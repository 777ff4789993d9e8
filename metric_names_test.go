package simuc_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/ingest"
	"repro/internal/kvserver"
	"repro/internal/obs"
)

// metricNames lists every series reg publishes as "<kind> <name>", sorted.
func metricNames(reg *obs.Registry) []string {
	c, g, h := reg.Snapshot().Names()
	var out []string
	for _, n := range c {
		out = append(out, "counter "+n)
	}
	for _, n := range g {
		out = append(out, "gauge "+n)
	}
	for _, n := range h {
		out = append(out, "histogram "+n)
	}
	sort.Strings(out)
	return out
}

// TestMetricNamesStable pins the exact series a large-value kv server (the
// striped map simkvd and the end-to-end benchmark run) and an ingest
// partition publish. The timeline's series discovery
// and the end-to-end benchmark's per-layer metrics read these names, so a
// change here is a breaking change for both.
func TestMetricNamesStable(t *testing.T) {
	srv := kvserver.New(4, 2, kvserver.WithLargeValues(1024))
	if got := metricNames(srv.Registry()); !slices.Equal(got, wantKVNames) {
		t.Errorf("kvserver metric names changed:\n got %q\nwant %q", got, wantKVNames)
	}
	reg := obs.NewRegistry()
	p := ingest.New(4, ingest.Config{})
	p.Attach(reg, obs.Labeled("ingest", "partition", "0"), nil)
	if got := metricNames(reg); !slices.Equal(got, wantIngestNames) {
		t.Errorf("ingest metric names changed:\n got %q\nwant %q", got, wantIngestNames)
	}
}

var wantKVNames = []string{
	"counter alloc_blocks_total{class=\"blob_lsim_item\"}",
	"counter alloc_blocks_total{class=\"blob_lsim_state\"}",
	"counter alloc_blocks_total{class=\"blob_state\"}",
	"counter alloc_blocks_total{class=\"map_state\"}",
	"counter alloc_drop_total{class=\"blob_lsim_item\"}",
	"counter alloc_drop_total{class=\"blob_lsim_state\"}",
	"counter alloc_drop_total{class=\"blob_state\"}",
	"counter alloc_drop_total{class=\"map_state\"}",
	"counter alloc_free_total{class=\"blob_lsim_item\"}",
	"counter alloc_free_total{class=\"blob_lsim_state\"}",
	"counter alloc_free_total{class=\"blob_state\"}",
	"counter alloc_free_total{class=\"map_state\"}",
	"counter alloc_fresh_total{class=\"blob_lsim_item\"}",
	"counter alloc_fresh_total{class=\"blob_lsim_state\"}",
	"counter alloc_fresh_total{class=\"blob_state\"}",
	"counter alloc_fresh_total{class=\"map_state\"}",
	"counter alloc_pool_handoff_total{class=\"blob_lsim_item\"}",
	"counter alloc_pool_handoff_total{class=\"blob_lsim_state\"}",
	"counter alloc_pool_handoff_total{class=\"blob_state\"}",
	"counter alloc_pool_handoff_total{class=\"map_state\"}",
	"counter alloc_starved_total{class=\"blob_lsim_item\"}",
	"counter alloc_starved_total{class=\"blob_lsim_state\"}",
	"counter alloc_starved_total{class=\"blob_state\"}",
	"counter alloc_starved_total{class=\"map_state\"}",
	"counter blob_backoff_grow_total",
	"counter blob_cas_fail_total",
	"counter blob_cas_success_total",
	"counter blob_combined_total",
	"counter blob_lsim_cas_fail_total",
	"counter blob_lsim_cas_success_total",
	"counter blob_lsim_combined_total",
	"counter blob_lsim_items_written_total",
	"counter blob_lsim_ops_total",
	"counter blob_lsim_served_by_total",
	"counter blob_ops_total",
	"counter blob_served_by_total",
	"counter blob_tier_large_ops_total",
	"counter blob_tier_small_ops_total",
	"counter kv_bdel_total",
	"counter kv_bget_total",
	"counter kv_bput_total",
	"counter kv_del_total",
	"counter kv_err_total",
	"counter kv_get_total",
	"counter kv_len_total",
	"counter kv_put_total",
	"counter kv_refused_total{reason=\"busy\"}",
	"counter kv_refused_total{reason=\"line_too_long\"}",
	"counter kv_reply_writes_total",
	"counter kv_stats_total",
	"counter map_backoff_grow_total",
	"counter map_cas_fail_total",
	"counter map_cas_success_total",
	"counter map_combined_total",
	"counter map_ops_total",
	"counter map_served_by_total",
	"gauge kv_connections",
	"histogram blob_combine_degree",
	"histogram blob_op_latency_ns",
	"histogram map_combine_degree",
	"histogram map_op_latency_ns",
}

var wantIngestNames = []string{
	"counter alloc_blocks_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_blocks_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_blocks_total{class=\"ingest_queue_node\"}",
	"counter alloc_blocks_total{class=\"ingest_spool_state\"}",
	"counter alloc_drop_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_drop_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_drop_total{class=\"ingest_queue_node\"}",
	"counter alloc_drop_total{class=\"ingest_spool_state\"}",
	"counter alloc_free_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_free_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_free_total{class=\"ingest_queue_node\"}",
	"counter alloc_free_total{class=\"ingest_spool_state\"}",
	"counter alloc_fresh_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_fresh_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_fresh_total{class=\"ingest_queue_node\"}",
	"counter alloc_fresh_total{class=\"ingest_spool_state\"}",
	"counter alloc_pool_handoff_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_pool_handoff_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_pool_handoff_total{class=\"ingest_queue_node\"}",
	"counter alloc_pool_handoff_total{class=\"ingest_spool_state\"}",
	"counter alloc_starved_total{class=\"ingest_queue_deq_state\"}",
	"counter alloc_starved_total{class=\"ingest_queue_enq_state\"}",
	"counter alloc_starved_total{class=\"ingest_queue_node\"}",
	"counter alloc_starved_total{class=\"ingest_spool_state\"}",
	"counter ingest_appended_total{partition=\"0\"}",
	"counter ingest_drained_total{partition=\"0\"}",
	"counter ingest_flushes_total{partition=\"0\"}",
	"counter ingest_queue_backoff_grow_total{partition=\"0\"}",
	"counter ingest_queue_cas_fail_total{partition=\"0\"}",
	"counter ingest_queue_cas_success_total{partition=\"0\"}",
	"counter ingest_queue_combined_total{partition=\"0\"}",
	"counter ingest_queue_ops_total{partition=\"0\"}",
	"counter ingest_queue_served_by_total{partition=\"0\"}",
	"counter ingest_spool_backoff_grow_total{partition=\"0\"}",
	"counter ingest_spool_cas_fail_total{partition=\"0\"}",
	"counter ingest_spool_cas_success_total{partition=\"0\"}",
	"counter ingest_spool_combined_total{partition=\"0\"}",
	"counter ingest_spool_ops_total{partition=\"0\"}",
	"counter ingest_spool_served_by_total{partition=\"0\"}",
	"histogram ingest_queue_combine_degree{partition=\"0\"}",
	"histogram ingest_queue_op_latency_ns{partition=\"0\"}",
	"histogram ingest_spool_combine_degree{partition=\"0\"}",
	"histogram ingest_spool_op_latency_ns{partition=\"0\"}",
}
