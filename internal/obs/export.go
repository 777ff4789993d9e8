package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// histJSON is the JSON shape of one histogram: the derived statistics the
// acceptance dashboards want (p50/p99/mean/max) plus the non-empty buckets,
// keyed by inclusive upper bound.
type histJSON struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Mean    float64           `json:"mean"`
	Max     uint64            `json:"max"`
	P50     uint64            `json:"p50"`
	P90     uint64            `json:"p90"`
	P99     uint64            `json:"p99"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

type snapshotJSON struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
}

// WriteJSON writes the snapshot as one indented JSON document: counters and
// gauges as flat name→value maps, histograms with precomputed p50/p90/p99,
// mean, max, and the non-empty log buckets.
func WriteJSON(w io.Writer, s Snapshot) error {
	out := snapshotJSON{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: map[string]histJSON{},
	}
	for name, h := range s.Histograms {
		hj := histJSON{
			Count: h.Count,
			Sum:   h.Sum,
			Mean:  h.Mean(),
			Max:   h.Max,
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		for i, c := range h.Buckets {
			if c != 0 {
				if hj.Buckets == nil {
					hj.Buckets = map[string]uint64{}
				}
				hj.Buckets[fmt.Sprintf("%d", BucketUpper(i))] = c
			}
		}
		out.Histograms[name] = hj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeries renders a metric name for one exposition line: the sanitized
// base name plus suffix, with the name's label block — extended by extra
// (e.g. a `le` bound) — emitted as real Prometheus labels.
func promSeries(name, suffix, extra string) string {
	base, labels := SplitName(name)
	out := promName(base) + suffix
	switch {
	case labels != "" && extra != "":
		return out + "{" + labels + "," + extra + "}"
	case labels != "":
		return out + "{" + labels + "}"
	case extra != "":
		return out + "{" + extra + "}"
	}
	return out
}

// promType writes the `# TYPE` header when base differs from *last: labeled
// series of one family (ingest_ops_total{partition="0"}, {partition="1"}, …) sort
// adjacently, and the family gets exactly one header.
func promType(w io.Writer, name, kind string, last *string) error {
	base, _ := SplitName(name)
	pn := promName(base)
	if pn == *last {
		return nil
	}
	*last = pn
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, kind)
	return err
}

// WriteProm writes the snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count` (the standard
// histogram convention, so PromQL's histogram_quantile works unchanged).
// Names carrying a label block (see Labeled) become real labeled series
// under their shared family name.
func WriteProm(w io.Writer, s Snapshot) error {
	counters, gauges, hists := s.Names()
	var last string
	for _, name := range counters {
		if err := promType(w, name, "counter", &last); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(name, "", ""), s.Counters[name]); err != nil {
			return err
		}
	}
	last = ""
	for _, name := range gauges {
		if err := promType(w, name, "gauge", &last); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(name, "", ""), s.Gauges[name]); err != nil {
			return err
		}
	}
	last = ""
	for _, name := range hists {
		h := s.Histograms[name]
		if err := promType(w, name, "histogram", &last); err != nil {
			return err
		}
		var cum uint64
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			le := fmt.Sprintf("le=\"%d\"", BucketUpper(i))
			if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(name, "_bucket", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n%s %d\n",
			promSeries(name, "_bucket", `le="+Inf"`), h.Count,
			promSeries(name, "_sum", ""), h.Sum,
			promSeries(name, "_count", ""), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry over HTTP: Prometheus text format by default,
// JSON with `?format=json` (or an Accept: application/json header), and the
// delta-since-last-scrape view with `?delta=1`. Mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var snap Snapshot
		if req.URL.Query().Get("delta") == "1" {
			snap = r.Delta()
		} else {
			snap = r.Snapshot()
		}
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSON(w, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, snap)
	})
}
