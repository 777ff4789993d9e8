package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// buildTrace records a small deterministic event mix on two pids.
func buildTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := New(2)
	t0 := start(tr, 0)
	tr.Instant(0, KindCASFail, 0, 0)
	tr.OpCommit(0, t0, obs.End(t0), 3, 2, 7)
	t1 := start(tr, 1)
	tr.Instant(1, KindBackoffGrow, 128, 0)
	tr.OpServed(1, t1, obs.End(t1))
	tr.AnonInstant(KindHazardOverflow, 1, 0)
	return tr
}

func TestWriteChrome(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}

	var rounds, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			if ev.Name == "round" {
				rounds++
				if ev.Tid != 0 {
					t.Fatalf("round event on tid %d, want 0", ev.Tid)
				}
				if deg, ok := ev.Args["degree"].(float64); !ok || deg != 3 {
					t.Fatalf("round degree arg = %v, want 3", ev.Args["degree"])
				}
				if act, ok := ev.Args["act"].(float64); !ok || act != 2 {
					t.Fatalf("round act arg = %v, want 2", ev.Args["act"])
				}
			}
		case "i":
			instants++
		}
	}
	if rounds != 1 {
		t.Fatalf("round events = %d, want 1", rounds)
	}
	if instants != 3 { // cas_fail + backoff_grow + hazard_overflow
		t.Fatalf("instant events = %d, want 3", instants)
	}
	if metas < 3 { // process_name + at least pid 0, pid 1 thread names
		t.Fatalf("metadata events = %d, want >= 3", metas)
	}
}

func TestWriteText(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"round", "served", "cas_fail", "backoff_grow", "hazard_overflow", "degree=3", "window=128", "p00", "p01", "p??"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := WriteText(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no events)") {
		t.Fatalf("empty dump = %q", buf.String())
	}
}

func TestTail(t *testing.T) {
	evs := make([]Event, 10)
	for i := range evs {
		evs[i].Seq = uint64(i)
	}
	if got := Tail(evs, 3); len(got) != 3 || got[0].Seq != 7 {
		t.Fatalf("Tail(10, 3) = %v", got)
	}
	if got := Tail(evs, 0); len(got) != 10 {
		t.Fatalf("Tail(10, 0) trimmed to %d", len(got))
	}
	if got := Tail(evs, 50); len(got) != 10 {
		t.Fatalf("Tail(10, 50) = %d events", len(got))
	}
}
