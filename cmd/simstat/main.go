// Command simstat is the operator console for the telemetry timeline: it
// attaches to a running simkvd or simingestd (anything serving
// /debug/timeline), polls the windowed query surface, and renders a live
// top-style view — throughput sparkline, latency percentiles, CAS-failure
// ratio, combining degree, a per-series (per-shard / per-partition) table,
// and any active SLO breaches.
//
//	simstat -addr 127.0.0.1:9090            # live console, 1s refresh
//	simstat -addr 127.0.0.1:9090 -window 5m # wider history window
//	simstat -addr 127.0.0.1:9090 -once      # one plain-text frame, no ANSI
//	simstat -addr 127.0.0.1:9090 -once -json # one raw snapshot as JSON
//
// The console is read-only: every poll is a PSim.Read snapshot server-side,
// so watching a daemon never perturbs the wait-free hot path it reports on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/timeline"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "daemon metrics address serving /debug/timeline")
		window   = flag.Duration("window", time.Minute, "history window to query")
		interval = flag.Duration("interval", time.Second, "console refresh interval")
		series   = flag.String("series", "", "comma-separated series filter (empty = all)")
		once     = flag.Bool("once", false, "print one frame and exit")
		asJSON   = flag.Bool("json", false, "with -once, print the raw snapshot JSON")
	)
	flag.Parse()

	url := fmt.Sprintf("http://%s/debug/timeline?window=%s", *addr, *window)
	if *series != "" {
		// Series names carry label blocks (`ingest{partition="0"}`); escape them.
		url += "&series=" + neturl.QueryEscape(*series)
	}

	if *once {
		if err := oneShot(os.Stdout, url, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "simstat:", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		var buf strings.Builder
		resp, err := fetch(url)
		if err != nil {
			buf.WriteString("simstat: " + err.Error() + "\n")
		} else {
			renderFrame(&buf, *addr, resp)
		}
		// Home + clear-to-end redraw: no flicker, stale rows never linger.
		fmt.Print("\x1b[H\x1b[2J" + buf.String())
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// oneShot prints a single frame (or the raw JSON document) and returns.
func oneShot(w io.Writer, url string, asJSON bool) error {
	if asJSON {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
		}
		_, err = io.Copy(w, resp.Body)
		return err
	}
	doc, err := fetch(url)
	if err != nil {
		return err
	}
	renderFrame(w, url, doc)
	return nil
}

// fetch pulls one timeline snapshot.
func fetch(url string) (timeline.ResponseJSON, error) {
	var doc timeline.ResponseJSON
	resp, err := http.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return doc, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// renderFrame writes one console frame: header, the primary series' rate
// sparkline and latency line, the per-series table, SLO state, and the
// newest annotations.
func renderFrame(w io.Writer, target string, doc timeline.ResponseJSON) {
	names := make([]string, 0, len(doc.Series))
	for name := range doc.Series {
		names = append(names, name)
	}
	sort.Strings(names)

	primary, primaryOps := "", -1.0
	for _, name := range names {
		if strings.ContainsRune(name, '{') {
			continue // labeled sub-series never headline
		}
		if ops := totalOps(doc.Series[name]); ops > primaryOps {
			primary, primaryOps = name, ops
		}
	}
	if primary == "" && len(names) > 0 {
		primary = names[0]
	}

	fmt.Fprintf(w, "simstat — %s   window %s   %d series   %s\n\n",
		target, time.Duration(doc.WindowNs), len(doc.Series),
		time.Unix(0, doc.Now).Format("15:04:05"))

	if primary != "" {
		samples := doc.Series[primary]
		last := samples[len(samples)-1]
		rates := make([]float64, len(samples))
		for i, s := range samples {
			rates[i] = s.OpsPerSec
		}
		fmt.Fprintf(w, "%-24s %10.0f ops/s  %s\n", primary, last.OpsPerSec, sparkline(rates, 32))
		fmt.Fprintf(w, "%-24s p50 %-8s p90 %-8s p99 %-8s max %-8s cas-fail %5.1f%%  combine %.2f\n\n",
			"", fmtNs(last.LatP50), fmtNs(last.LatP90), fmtNs(last.LatP99), fmtNs(last.LatMax),
			last.CASFailRatio*100, last.CombineMean)
	}

	fmt.Fprintf(w, "%-32s %10s %7s %9s %9s %8s\n", "SERIES", "OPS/S", "CASF%", "P99", "MAX", "COMBINE")
	for _, name := range names {
		samples := doc.Series[name]
		last := samples[len(samples)-1]
		fmt.Fprintf(w, "%-32s %10.0f %7.1f %9s %9s %8.2f\n",
			name, last.OpsPerSec, last.CASFailRatio*100, fmtNs(last.LatP99), fmtNs(last.LatMax), last.CombineMean)
	}

	if len(doc.SLO) > 0 {
		fmt.Fprintf(w, "\nSLO\n")
		for _, st := range doc.SLO {
			state := "ok"
			if st.Breached {
				state = "BREACH"
			} else if !st.Evaluated {
				state = "warming"
			}
			fmt.Fprintf(w, " %-7s %-28s value %.4g", state, st.Name, st.Value)
			if st.Breached {
				fmt.Fprintf(w, "  since %s", time.Duration(st.SinceNs).Round(time.Second))
			}
			fmt.Fprintln(w)
		}
	}

	if n := len(doc.Annotations); n > 0 {
		fmt.Fprintf(w, "\nANNOTATIONS (%d in window)\n", n)
		const show = 5
		for _, a := range doc.Annotations[max(0, n-show):] {
			fmt.Fprintf(w, " %s %-14s %-28s value %.4g\n",
				time.Unix(0, a.TS).Format("15:04:05"), a.Kind, a.Ref, a.Value)
		}
	}
	if doc.Skipped > 0 {
		fmt.Fprintf(w, "\n(%d samples expired by retention before this query)\n", doc.Skipped)
	}
}

func totalOps(samples []timeline.SampleJSON) float64 {
	var t float64
	for _, s := range samples {
		t += float64(s.Ops)
	}
	return t
}

// sparkline renders values as a fixed-width block-glyph strip, scaled to
// the observed maximum (an empty strip for no data).
func sparkline(values []float64, width int) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	if len(values) > width {
		values = values[len(values)-width:]
	}
	var maxV float64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * 7)
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// fmtNs renders a nanosecond quantity as a compact duration.
func fmtNs(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
