package main

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// delta is the change of the daemon's counters and histogram buckets
// between two /metrics scrapes.
type delta struct {
	counters map[string]float64
	hists    map[string]map[uint64]uint64 // bucket upper bound -> count
}

func diffSnapshots(a, b *snapshot) delta {
	d := delta{counters: map[string]float64{}, hists: map[string]map[uint64]uint64{}}
	for k, v := range b.Counters {
		d.counters[k] = v - a.Counters[k]
	}
	for name, h := range b.Histograms {
		out := map[uint64]uint64{}
		for ub, c := range h.Buckets {
			u, err := strconv.ParseUint(ub, 10, 64)
			if err != nil {
				continue
			}
			out[u] = c - a.Histograms[name].Buckets[ub]
		}
		d.hists[name] = out
	}
	return d
}

// sum adds the counters whose name, without its label block, is one of
// prefixes followed by suffix.
func (d delta) sum(prefixes []string, suffix string) float64 {
	var s float64
	for name, v := range d.counters {
		base, _, _ := strings.Cut(name, "{")
		for _, p := range prefixes {
			if base == p+suffix {
				s += v
			}
		}
	}
	return s
}

// labeled sums the counters of family base carrying label value val.
func (d delta) labeled(base, val string) float64 {
	var s float64
	for name, v := range d.counters {
		if strings.HasPrefix(name, base+"{") && strings.Contains(name, `="`+val+`"`) {
			s += v
		}
	}
	return s
}

// histQuantile returns the q-quantile of the summed histograms named
// prefix+suffix, as the upper bound of the bucket it falls in.
func (d delta) histQuantile(prefixes []string, suffix string, q float64) float64 {
	merged := map[uint64]uint64{}
	var total uint64
	for name, h := range d.hists {
		base, _, _ := strings.Cut(name, "{")
		for _, p := range prefixes {
			if base == p+suffix {
				for ub, c := range h {
					merged[ub] += c
					total += c
				}
			}
		}
	}
	var cum uint64
	for _, ub := range slices.Sorted(maps.Keys(merged)) {
		cum += merged[ub]
		if float64(cum) >= q*float64(total) && total > 0 {
			return float64(ub)
		}
	}
	return 0
}

// allocClasses are the allocator size classes the daemons register.
var allocClasses = []string{
	"map_state", "blob_state", "blob_lsim_state", "blob_lsim_item",
	"ingest_queue_node", "ingest_queue_enq_state", "ingest_queue_deq_state", "ingest_spool_state",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coreMetrics derives the construction, allocator and stage metrics from
// the counters moved by reqs requests.
func (r *runner) coreMetrics(v map[string]float64, d delta, reqs float64) {
	pre := corePrefixes(r.w)
	ops := d.sum(pre, "ops_total")
	v["core.helping"] = ratio(d.sum(pre, "combined_total"), d.sum(pre, "cas_success_total"))
	v["core.cas_fail_per_op"] = ratio(d.sum(pre, "cas_fail_total"), ops)
	v["core.served_by_frac"] = ratio(d.sum(pre, "served_by_total"), ops)
	v["core.backoff_grow_per_kop"] = ratio(d.sum(pre, "backoff_grow_total")*1e3, ops)
	v["core.op_p50_ns"] = d.histQuantile(pre, "op_latency_ns", 0.50)
	v["core.op_p99_ns"] = d.histQuantile(pre, "op_latency_ns", 0.99)

	for _, c := range allocClasses {
		v["alloc.fresh_frac."+c] = ratio(d.labeled("alloc_fresh_total", c), d.labeled("alloc_blocks_total", c))
	}
	v["alloc.starved_per_kop"] = d.sum([]string{"alloc_"}, "starved_total") / reqs * 1e3
	v["alloc.handoff_per_kop"] = d.sum([]string{"alloc_"}, "pool_handoff_total") / reqs * 1e3

	ing := []string{"ingest_"}
	v["ingest.events_per_flush"] = ratio(d.sum(ing, "appended_total"), d.sum(ing, "flushes_total"))
	v["ingest.events_per_drain"] = ratio(d.sum(ing, "drained_total"), d.sum(ing, "spool_ops_total"))

	v["lsim.items_written_per_op"] = ratio(d.sum([]string{"blob_lsim_"}, "items_written_total"), d.sum([]string{"kv_"}, "bput_total"))
	small, large := d.sum([]string{"blob_"}, "tier_small_ops_total"), d.sum([]string{"blob_"}, "tier_large_ops_total")
	v["tiered.large_frac"] = ratio(large, small+large)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
