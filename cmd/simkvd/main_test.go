package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// dial connects to the daemon and returns a request/response helper.
func dial(t *testing.T, addr string) (send func(string) string, conn net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := bufio.NewReader(conn)
	send = func(line string) string {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return strings.TrimSpace(resp)
	}
	return send, conn
}

// TestDaemonEndToEnd boots the full daemon on ephemeral ports, exercises the
// KV protocol over TCP and the /metrics endpoint over HTTP, and verifies a
// clean shutdown.
func TestDaemonEndToEnd(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 4, 4, options{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	send, conn := dial(t, d.addr)
	defer conn.Close()
	for _, c := range [][2]string{
		{"PUT a 41", "OK NIL"},
		{"PUT a 42", "OK 41"},
		{"GET a", "VAL 42"},
		{"GET missing", "NIL"},
		{"LEN", "LEN 1"},
	} {
		if got := send(c[0]); got != c[1] {
			t.Fatalf("%q -> %q, want %q", c[0], got, c[1])
		}
	}
	stats := send("STATS")
	for _, field := range []string{"STATS ops=", "helping=", "cas_fail=", "served_by="} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS missing %s: %q", field, stats)
		}
	}

	// Prometheus text format.
	promBody := httpGet(t, "http://"+d.metricsAddr()+"/metrics")
	for _, want := range []string{
		"# TYPE kv_put_total counter",
		"# TYPE kv_connections gauge",
		"# TYPE map_op_latency_ns histogram",
		"map_op_latency_ns_count",
		"map_combine_degree_bucket",
	} {
		if !strings.Contains(promBody, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, promBody)
		}
	}

	// JSON format: live op counts, combining-degree histogram, latency
	// percentiles.
	var snap struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			P50   uint64  `json:"p50"`
			P99   uint64  `json:"p99"`
			Mean  float64 `json:"mean"`
			Max   uint64  `json:"max"`
		} `json:"histograms"`
	}
	jsonBody := httpGet(t, "http://"+d.metricsAddr()+"/metrics?format=json")
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, jsonBody)
	}
	if snap.Counters["kv_put_total"] != 2 || snap.Counters["kv_get_total"] != 2 {
		t.Fatalf("command counters wrong: %v", snap.Counters)
	}
	if snap.Counters["map_ops_total"] != 2 { // two PUTs mutated the map
		t.Fatalf("map_ops_total = %d, want 2", snap.Counters["map_ops_total"])
	}
	lat := snap.Histograms["map_op_latency_ns"]
	if lat.Count != 2 || lat.P99 == 0 || lat.P50 > lat.P99 || lat.P99 > lat.Max {
		t.Fatalf("latency histogram implausible: %+v", lat)
	}
	cd := snap.Histograms["map_combine_degree"]
	if cd.Count == 0 {
		t.Fatalf("combine-degree histogram empty: %+v", cd)
	}
	if snap.Gauges["kv_connections"] != 1 {
		t.Fatalf("kv_connections = %d, want 1", snap.Gauges["kv_connections"])
	}

	// Clean shutdown with the client still connected: close must not hang,
	// and both ports must come free.
	closed := make(chan error, 1)
	go func() { closed <- d.close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon close hung")
	}
	if _, err := net.Dial("tcp", d.addr); err == nil {
		t.Fatal("KV port still accepting after close")
	}
}

func TestStartRejectsBadMetricsAddr(t *testing.T) {
	if _, err := start("127.0.0.1:0", "256.0.0.1:bad", 1, 1, options{}); err == nil {
		t.Fatal("start accepted a bad metrics address")
	}
}

// TestDebugSurface boots the daemon with the flight recorder on, drives some
// mutations, and checks the /debug endpoints: the flight snapshot in both
// formats, last=N trimming, and the pprof index.
func TestDebugSurface(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 2, 2,
		options{flight: 64})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	send, conn := dial(t, d.addr)
	defer conn.Close()
	for i := 0; i < 8; i++ {
		if got := send(fmt.Sprintf("PUT k%d %d", i, i)); !strings.HasPrefix(got, "OK") {
			t.Fatalf("PUT -> %q", got)
		}
	}

	base := "http://" + d.metricsAddr()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	body := httpGet(t, base+"/debug/flight")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("flight chrome export invalid JSON: %v\n%s", err, body)
	}
	rounds := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "round" {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatalf("flight snapshot has no round events:\n%s", body)
	}

	text := httpGet(t, base+"/debug/flight?format=text&last=3")
	if !strings.Contains(text, "round") {
		t.Fatalf("text flight dump missing round events:\n%s", text)
	}
	if n := strings.Count(text, "\n"); n > 3 {
		t.Fatalf("last=3 returned %d lines:\n%s", n, text)
	}

	if idx := httpGet(t, base+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index implausible:\n%.200s", idx)
	}

	if resp, err := http.Get(base + "/debug/flight?format=nope"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: err=%v status=%v", err, resp.Status)
	}
}

// TestFlightDisabledEndpoint checks /debug/flight 404s when -flight is off.
func TestFlightDisabledEndpoint(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 1, 1, options{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()
	resp, err := http.Get("http://" + d.metricsAddr() + "/debug/flight")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestDaemonLargeValueTier boots with -large-threshold and checks the blob
// command family end to end, including the tier split in STATS and the
// blob_* metric family on /metrics.
func TestDaemonLargeValueTier(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 4, 4, options{largeThresh: 16})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	send, conn := dial(t, d.addr)
	defer conn.Close()
	big := strings.Repeat("v", 64)
	for _, c := range [][2]string{
		{"BPUT s tiny", "OK NEW"},
		{"BPUT l " + big, "OK NEW"},
		{"BPUT l " + big + "2", "OK SET"},
		{"BGET l", "VAL " + big + "2"},
		{"BGET s", "VAL tiny"},
		{"BDEL s", "OK"},
	} {
		if got := send(c[0]); got != c[1] {
			t.Fatalf("%q -> %q, want %q", c[0], got, c[1])
		}
	}
	stats := send("STATS")
	for _, field := range []string{"blob_small=", "blob_large=", "lsim_ops=", "lsim_items=", "threshold=16"} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS missing %s: %q", field, stats)
		}
	}
	promBody := httpGet(t, "http://"+d.metricsAddr()+"/metrics")
	for _, want := range []string{"kv_bput_total", "blob_tier_large_ops_total", "blob_lsim_ops_total"} {
		if !strings.Contains(promBody, want) {
			t.Fatalf("prometheus output missing %q", want)
		}
	}
}

// TestTimelineEndpoint boots with the telemetry timeline on a fast scrape
// interval, drives load, and checks /debug/timeline serves windowed
// per-series history — and that an unmeetable SLO throughput floor
// escalates into a breach visible in both the rule state and the
// annotation log.
func TestTimelineEndpoint(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 4, 4,
		options{timeline: 10 * time.Millisecond, slo: "ops>=1e12@50ms"})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	send, conn := dial(t, d.addr)
	defer conn.Close()
	for i := 0; i < 64; i++ {
		if got := send(fmt.Sprintf("PUT k%d %d", i, i)); !strings.HasPrefix(got, "OK") {
			t.Fatalf("PUT -> %q", got)
		}
	}

	base := "http://" + d.metricsAddr()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp struct {
			Series map[string][]struct {
				Ops       uint64  `json:"ops"`
				OpsPerSec float64 `json:"ops_per_sec"`
			} `json:"series"`
			Annotations []struct {
				Kind string `json:"kind"`
				Ref  string `json:"ref"`
			} `json:"annotations"`
			SLO []struct {
				Rule     string `json:"rule"`
				Breached bool   `json:"breached"`
			} `json:"slo"`
		}
		body := httpGet(t, base+"/debug/timeline?window=30s")
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("timeline response invalid JSON: %v\n%s", err, body)
		}
		var ops uint64
		for _, s := range resp.Series["map"] {
			ops += s.Ops
		}
		breached := len(resp.SLO) == 1 && resp.SLO[0].Breached
		annotated := false
		for _, a := range resp.Annotations {
			if a.Kind == "slo_breach" {
				annotated = true
			}
		}
		if ops >= 64 && breached && annotated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline never converged: ops=%d breached=%v annotated=%v\n%s",
				ops, breached, annotated, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Series filtering trims the response to the requested family.
	body := httpGet(t, base+"/debug/timeline?window=30s&series=map")
	var filtered struct {
		Series map[string]json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatalf("filtered response invalid JSON: %v", err)
	}
	if len(filtered.Series) != 1 {
		t.Fatalf("series filter returned %d series, want 1", len(filtered.Series))
	}
}

// TestTimelineDisabled checks /debug/timeline 404s when -timeline is 0 and
// that -slo without -timeline is rejected.
func TestTimelineDisabled(t *testing.T) {
	d, err := start("127.0.0.1:0", "127.0.0.1:0", 1, 1, options{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()
	resp, err := http.Get("http://" + d.metricsAddr() + "/debug/timeline")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if _, err := start("127.0.0.1:0", "", 1, 1, options{slo: "ops>=1"}); err == nil {
		t.Fatal("-slo without -timeline accepted")
	}
}
