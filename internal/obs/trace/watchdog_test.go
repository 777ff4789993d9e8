package trace

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWatchdogDetectsStalledPid is the acceptance test for the progress
// watchdog: pid 1 announces an operation that never commits (an artificially
// stalled / never-helped thread) while pid 0 keeps committing rounds. Once
// the rest of the system has committed more than the budget, Scan must
// report pid 1 — and only pid 1.
func TestWatchdogDetectsStalledPid(t *testing.T) {
	tr := New(2)
	var reported []Stall
	wd := NewWatchdog(tr, 10, func(s Stall) { reported = append(reported, s) })

	tr.OpStart(1) // pid 1 announces and stalls forever

	if stalls := wd.Scan(); len(stalls) != 0 {
		t.Fatalf("first scan (arming) reported %v, want none", stalls)
	}

	// The rest of the system commits well past the budget.
	for i := 0; i < 25; i++ {
		t0 := start(tr, 0)
		tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
	}

	stalls := wd.Scan()
	if len(stalls) != 1 {
		t.Fatalf("got %d stalls (%v), want 1", len(stalls), stalls)
	}
	s := stalls[0]
	if s.Pid != 1 || s.Pending != 1 {
		t.Fatalf("unexpected stall %+v", s)
	}
	if s.Rounds < 25 {
		t.Fatalf("stall rounds = %d, want >= 25", s.Rounds)
	}
	if len(reported) != 1 || reported[0].Pid != 1 {
		t.Fatalf("onStall reports = %v, want one for pid 1", reported)
	}

	// Re-scanning reports the ongoing stall but does not re-fire the callback.
	if stalls := wd.Scan(); len(stalls) != 1 {
		t.Fatalf("repeat scan got %v, want the ongoing stall", stalls)
	}
	if len(reported) != 1 {
		t.Fatalf("callback re-fired: %v", reported)
	}

	// The stalled operation finally commits: the stall clears.
	tr.OpCommit(1, 0, 0, 1, 1, 1)
	if stalls := wd.Scan(); len(stalls) != 0 {
		t.Fatalf("after commit got %v, want none", stalls)
	}
}

func TestWatchdogIdleThreadsNotReported(t *testing.T) {
	tr := New(3)
	wd := NewWatchdog(tr, 5, nil)
	// Pids 1 and 2 never announce anything; pid 0 runs alone.
	wd.Scan()
	for i := 0; i < 50; i++ {
		t0 := start(tr, 0)
		tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
	}
	if stalls := wd.Scan(); len(stalls) != 0 {
		t.Fatalf("idle pids reported as stalled: %v", stalls)
	}
}

func TestWatchdogProgressResetsTracking(t *testing.T) {
	tr := New(2)
	wd := NewWatchdog(tr, 8, nil)
	// pid 1 always has an op in flight but keeps committing — never a stall.
	tr.OpStart(1)
	wd.Scan()
	for i := 0; i < 30; i++ {
		t0 := start(tr, 0)
		tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
		tr.OpCommit(1, 0, 0, 1, 1, 1) // commit the in-flight op...
		tr.OpStart(1)                 // ...and immediately announce the next
		if stalls := wd.Scan(); len(stalls) != 0 {
			t.Fatalf("progressing pid reported stalled: %v", stalls)
		}
	}
}

// TestWatchdogEpisodeCycles drives one pid through repeated
// stall → recover → stall cycles and pins the once-PER-EPISODE contract:
// every distinct episode fires the callback exactly once (not once ever,
// not once per scan), and the episode state — round count, wall-clock
// baseline — restarts fresh each time rather than accumulating across
// recoveries.
func TestWatchdogEpisodeCycles(t *testing.T) {
	tr := New(2)
	var reported []Stall
	wd := NewWatchdog(tr, 10, func(s Stall) { reported = append(reported, s) })

	const cycles = 5
	for c := 0; c < cycles; c++ {
		tr.OpStart(1) // announce and stall
		wd.Scan()     // arm

		// The rest of the system commits past the budget; several scans
		// while the stall persists must report it but fire no extra
		// callbacks.
		for i := 0; i < 15; i++ {
			t0 := start(tr, 0)
			tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
		}
		for scan := 0; scan < 3; scan++ {
			stalls := wd.Scan()
			if len(stalls) != 1 || stalls[0].Pid != 1 {
				t.Fatalf("cycle %d scan %d: stalls = %v, want pid 1", c, scan, stalls)
			}
		}
		if len(reported) != c+1 {
			t.Fatalf("cycle %d: %d callbacks, want %d (once per episode)", c, len(reported), c+1)
		}
		// Rounds count commits within THIS episode only: 15 plus at most
		// a few strays, never the cumulative total across cycles.
		if r := reported[c].Rounds; r < 11 || r > 20 {
			t.Fatalf("cycle %d: episode rounds = %d, want ~15 (fresh per episode)", c, r)
		}

		// The stalled op commits: the episode ends.
		tr.OpCommit(1, 0, 0, 1, 1, 1)
		if stalls := wd.Scan(); len(stalls) != 0 {
			t.Fatalf("cycle %d: stall survived recovery: %v", c, stalls)
		}
	}
	if len(reported) != cycles {
		t.Fatalf("%d callbacks over %d episodes, want one each: %+v", len(reported), cycles, reported)
	}
}

func TestWatchdogBudgetFloorsAtN(t *testing.T) {
	tr := New(8)
	wd := NewWatchdog(tr, 1, nil)
	if wd.budget != 8 {
		t.Fatalf("budget = %d, want floored to n=8", wd.budget)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	tr := New(2)
	fired := make(chan Stall, 1)
	wd := NewWatchdog(tr, 2, func(s Stall) {
		select {
		case fired <- s:
		default:
		}
	})
	tr.OpStart(1)
	wd.Start(time.Millisecond)
	deadline := time.After(2 * time.Second)
	for {
		t0 := start(tr, 0)
		tr.OpCommit(0, t0, obs.End(t0), 1, 1, 1)
		select {
		case s := <-fired:
			if s.Pid != 1 {
				t.Fatalf("stall pid = %d, want 1", s.Pid)
			}
			wd.Stop()
			wd.Stop() // idempotent
			return
		case <-deadline:
			t.Fatal("watchdog goroutine never reported the stall")
		default:
		}
	}
}
