package obs

import "strings"

// Metric names may carry a Prometheus-style label block:
//
//	ingest_ops_total{partition="3"}
//	ingest_spool_cas_fail_total{partition="0"}
//
// The registry treats the whole string as the key (each labeled series is
// its own metric), the JSON export keeps it verbatim, and the Prometheus
// export emits it as a real label set — so per-partition series aggregate
// with `sum by (partition)` instead of regexp gymnastics over
// name suffixes. Labeled and Join are the only sanctioned ways to build
// such names: Labeled appends (or extends) the block, Join inserts a
// suffix BEFORE it, so instrumentation helpers that derive families from a
// prefix (`<prefix>_ops_total`, …) keep working when the prefix is labeled.

// Labeled returns base with label="value" appended to its label block
// (creating the block if absent): Labeled("ingest", "partition", "3") is
// `ingest{partition="3"}`. Values must not contain `"` or `}`.
func Labeled(base, label, value string) string {
	if i := strings.IndexByte(base, '{'); i >= 0 {
		return base[:len(base)-1] + `,` + label + `="` + value + `"}`
	}
	return base + "{" + label + `="` + value + `"}`
}

// Join appends suffix to prefix, inserting it before any label block:
// Join(`ingest{partition="3"}`, "_ops_total") is
// `ingest_ops_total{partition="3"}`.
func Join(prefix, suffix string) string {
	if i := strings.IndexByte(prefix, '{'); i >= 0 {
		return prefix[:i] + suffix + prefix[i:]
	}
	return prefix + suffix
}

// SplitName splits a metric name into its base name and label block
// (labels == "" when the name carries none; otherwise the block without
// braces, e.g. `partition="3"`).
func SplitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	j := strings.LastIndexByte(name, '}')
	if j < i {
		return name, "" // malformed; treat as unlabeled
	}
	return name[:i], name[i+1 : j]
}
