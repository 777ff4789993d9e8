// Package timeline is the self-hosted telemetry history of the repository:
// a background scraper that snapshots the wait-free metric registry at a
// fixed interval, converts lifetime totals into per-interval deltas, and
// appends one fixed-size Sample per series into a spool-backed log — the
// same segmented log (internal/spool) and expiry engine (internal/retention)
// that back the ingest daemon, instantiated at Sample granularity. The
// history is therefore itself a client of the universal construction:
// appends are wait-free operations of a P-Sim instance, retention is one
// linearizable op-vector, and queries are PSim.Read snapshots that never
// block the scraper or any hot path they observe.
//
// # Sample schema
//
// Every entry in the log is one Sample (fixed size, no pointers — the
// spool's recycled-clone path keeps steady-state appends at 0 allocs/op).
// Kind separates periodic scrape samples from annotation events:
//
//	TS          unix nanos; scrape time or annotation time (spool Stamp)
//	IntervalNs  width of the scrape interval the deltas cover (samples only)
//	Series      series index (samples) / rule index (breach,clear) / pid (stall)
//	Kind        KindSample | KindBreach | KindClear | KindStall
//	Ops         operations completed in the interval        (Δ <p>_ops_total)
//	CASSuccess  successful CAS transitions in the interval  (Δ <p>_cas_success_total)
//	CASFail     failed CAS transitions in the interval      (Δ <p>_cas_fail_total)
//	Combined    operations applied by a combiner on behalf  (Δ <p>_combined_total)
//	LatCount    latency observations in the interval        (Δ <p>_op_latency_ns)
//	LatP50/90/99  latency quantile upper bounds over the interval's delta
//	LatMax      lifetime maximum latency (interval maxima are not recoverable)
//	CombineMeanMilli  mean combining degree over the interval, ×1000
//	Value       annotation payload: measured rule value (breach/clear),
//	            outlived rounds (stall); 0 for samples
//
// A "series" is one metric family prefix discovered in the registry: every
// counter named <prefix>_ops_total (label block included) declares the
// series <prefix>, so `map`, `ingest{partition="0"}` and
// `ingest{partition="2"}` are scraped side by side and the per-partition
// breakdown falls out of the labeled-name convention (obs.Labeled) rather
// than bespoke plumbing.
//
// Memory-plane size classes are discovered the same way: every counter
// alloc_blocks_total{class="C"} (published by alloc.Pool.Attach, wired
// through core.StatsPlane.AttachAllocPool) declares the series
// alloc{class="C"}, with the plane's families mapped onto the sample
// columns — Ops = blocks issued, CASSuccess = shared-pool chain handoffs,
// CASFail = guard-starved Gets, Combined = fresh heap allocations. Alloc
// series carry no latency histograms, so their latency columns stay zero.
package timeline

// Kind discriminates log entries.
type Kind int32

const (
	// KindSample is a periodic scrape sample.
	KindSample Kind = iota
	// KindBreach marks an SLO rule transitioning into violation.
	KindBreach
	// KindClear marks an SLO rule recovering.
	KindClear
	// KindStall records a watchdog stall episode fed via RecordStall.
	KindStall
)

// String names the kind for JSON export.
func (k Kind) String() string {
	switch k {
	case KindSample:
		return "sample"
	case KindBreach:
		return "slo_breach"
	case KindClear:
		return "slo_clear"
	case KindStall:
		return "watchdog_stall"
	}
	return "unknown"
}

// Sample is one fixed-size timeline entry; see the package doc for the
// field-by-field schema. It satisfies spool.Entry so the segmented log can
// seal and expire by time.
type Sample struct {
	TS               int64
	IntervalNs       int64
	Series           int32
	Kind             Kind
	Ops              uint64
	CASSuccess       uint64
	CASFail          uint64
	Combined         uint64
	LatCount         uint64
	LatP50           uint64
	LatP90           uint64
	LatP99           uint64
	LatMax           uint64
	CombineMeanMilli uint64
	Value            float64
}

// Stamp returns the entry's timestamp (spool.Entry).
func (s Sample) Stamp() int64 { return s.TS }

// OpsPerSec returns the sample's throughput over its interval.
func (s Sample) OpsPerSec() float64 {
	if s.IntervalNs <= 0 {
		return 0
	}
	return float64(s.Ops) * 1e9 / float64(s.IntervalNs)
}

// CASFailRatio returns failed CAS transitions as a fraction of all CAS
// attempts in the interval (0 when the interval saw none).
func (s Sample) CASFailRatio() float64 {
	total := s.CASSuccess + s.CASFail
	if total == 0 {
		return 0
	}
	return float64(s.CASFail) / float64(total)
}
