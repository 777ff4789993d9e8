package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/check/v2"
	"repro/internal/fmul"
)

// conf is a run with simcheck's flag defaults: n is -ops in stress mode
// (over 4 threads) and -rounds in linearize mode.
func conf(object, impl, mode string, n, batch int) config {
	return config{object: object, impl: impl, mode: mode, threads: 4, ops: n, rounds: n, batch: batch,
		lin: v2.DefaultOptions(), preempt: -1}
}

// pass validates c and reports whether every check passed.
func pass(t *testing.T, c config) bool {
	t.Helper()
	if err := c.validate(); err != nil {
		t.Fatalf("%s/%s %s -batch %d refused: %v", c.object, c.impl, c.mode, c.batch, err)
	}
	return c.run()
}

func TestCheckStackStress(t *testing.T) {
	for _, impl := range []string{"sim", "treiber", "elimination", "clh", "fc"} {
		if !pass(t, conf("stack", impl, "stress", 200, 1)) {
			t.Fatalf("stack %s failed stress check", impl)
		}
	}
}

func TestCheckStackLinearize(t *testing.T) {
	if !pass(t, conf("stack", "sim", "linearize", 10, 1)) {
		t.Fatal("SimStack failed linearizability check")
	}
}

func TestCheckStackBatched(t *testing.T) {
	if !pass(t, conf("stack", "sim", "stress", 200, 4)) {
		t.Fatal("SimStack failed batched stress check")
	}
	if !pass(t, conf("stack", "sim", "linearize", 10, 4)) {
		t.Fatal("SimStack failed batched linearizability check")
	}
}

func TestCheckQueueStress(t *testing.T) {
	for _, impl := range []string{"sim", "ms", "twolock", "fc"} {
		if !pass(t, conf("queue", impl, "stress", 200, 1)) {
			t.Fatalf("queue %s failed stress check", impl)
		}
	}
}

func TestCheckQueueLinearize(t *testing.T) {
	if !pass(t, conf("queue", "ms", "linearize", 10, 1)) {
		t.Fatal("MS queue failed linearizability check")
	}
}

func TestCheckQueueBatched(t *testing.T) {
	if !pass(t, conf("queue", "sim", "stress", 200, 4)) {
		t.Fatal("SimQueue failed batched stress check")
	}
	if !pass(t, conf("queue", "sim", "linearize", 10, 4)) {
		t.Fatal("SimQueue failed batched linearizability check")
	}
}

func TestCheckFMul(t *testing.T) {
	for _, impl := range []string{"psim", "pool", "lockfree", "combtree"} {
		if !pass(t, conf("fmul", impl, "stress", 200, 1)) {
			t.Fatalf("fmul %s failed stress check", impl)
		}
	}
	if !pass(t, conf("fmul", "psim", "linearize", 10, 1)) {
		t.Fatal("P-Sim failed linearizability check")
	}
}

func TestCheckFMulBatched(t *testing.T) {
	for _, impl := range []string{"psim", "pool"} {
		if !pass(t, conf("fmul", impl, "stress", 200, 4)) {
			t.Fatalf("fmul %s failed batched stress check", impl)
		}
		if !pass(t, conf("fmul", impl, "linearize", 10, 4)) {
			t.Fatalf("fmul %s failed batched linearizability check", impl)
		}
	}
}

func TestCheckMap(t *testing.T) {
	if !pass(t, conf("map", "sim", "stress", 200, 1)) {
		t.Fatal("striped map failed stress check")
	}
	if !pass(t, conf("map", "sim", "stress", 200, 4)) {
		t.Fatal("striped map failed batched stress check")
	}
	for _, partition := range []bool{true, false} {
		c := conf("map", "sim", "linearize", 10, 4)
		c.lin.Partition = partition
		if !pass(t, c) {
			t.Fatalf("striped map failed batched linearizability check (partition=%v)", partition)
		}
	}
}

// TestValidateRefuses pins each input simcheck refuses (exit 2) instead of
// crashing, silently reshaping the run, or printing OK after checking
// nothing, and that the widest accepted batches still validate.
func TestValidateRefuses(t *testing.T) {
	search := func(c config) config { c.lin.Engine = v2.EngineSearch; return c }
	both := func(c config) config { c.lin.Engine = v2.EngineBoth; return c }
	for _, tc := range []struct {
		c    config
		want string // "" = accepted
	}{
		{config{threads: 0, ops: 1, rounds: 1, batch: 1, object: "stack", impl: "sim", mode: "stress"}, "at least 1 (got 0, 1, 1, 1)"},
		{conf("stack", "sim", "stress", 0, 1), "at least 1"},
		{conf("stack", "sim", "linearize", 0, 1), "at least 1"},
		{conf("stack", "sim", "stress", 1, 0), "at least 1"},
		{conf("heap", "sim", "stress", 1, 1), `unknown object "heap"`},
		{conf("stack", "ms", "stress", 1, 1), `unknown stack impl "ms"`},
		{conf("map", "treiber", "stress", 1, 1), `unknown map impl "treiber"`},
		{conf("map", "sim", "soak", 1, 1), `unknown mode "soak"`},
		{conf("stack", "treiber", "stress", 1, 4), `stack impl "treiber" has no batched entry points (-batch needs sim)`},
		{conf("queue", "ms", "linearize", 1, 4), `queue impl "ms" has no batched entry points`},
		{conf("fmul", "clh", "stress", 1, 4), `fmul impl "clh" has no ApplyBatch (-batch needs psim or pool)`},
		{conf("queue", "sim", "linearize", 1, 30), "caps -batch at 21 for -engine forward (got 30)"},
		{both(conf("map", "sim", "linearize", 1, 22)), "caps -batch at 21 for -engine both"},
		{search(conf("stack", "sim", "linearize", 1, 9)), "caps -batch at 8 for -engine search"},
		{conf("queue", "sim", "stress", 1, 30), ""},
		{conf("queue", "sim", "linearize", 1, 21), ""},
		{search(conf("fmul", "pool", "linearize", 1, 8)), ""},
		{conf("map", "sim", "stress", 1, 1), ""},
		{conf("stack", "treiber", "linearize", 1, 1), ""},
	} {
		err := tc.c.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v refused: %v", tc.c, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: got %v, want a refusal containing %q", tc.c, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("refusal is not one line: %q", err)
		}
	}
}

// TestSearchHistoriesFitTheSearch pins the recorded history shapes at every
// batch -engine search accepts: 3 single-op pairs per process at b = 1 and
// one b-wide pair at b > 1 (stack, queue, map), 3 collapsed products per
// process (fmul). None exceeds the Wing–Gong search's 64 operations, so the
// search never has to hand a simcheck history to another engine.
func TestSearchHistoriesFitTheSearch(t *testing.T) {
	batchedImpl := map[string]string{"stack": "sim", "queue": "sim", "fmul": "psim", "map": "sim"}
	for name, o := range objects {
		widest := 0
		for b := 1; b <= 8; b++ {
			c := conf(name, batchedImpl[name], "linearize", 1, b)
			c.lin.Engine = v2.EngineSearch
			if err := c.validate(); err != nil {
				t.Fatalf("%s -batch %d refused: %v", name, b, err)
			}
			h, err := c.record(o, 0, c.roundCfg(0))
			if err != nil {
				t.Fatalf("%s -batch %d: %v", name, b, err)
			}
			want := 6 * b // 3 processes × a produce and a consume call of b
			switch {
			case name == "fmul":
				want = 9
			case b == 1 && name != "map":
				want = 18
			}
			if len(h) != want {
				t.Fatalf("%s -batch %d recorded %d operations, want %d", name, b, len(h), want)
			}
			widest = max(widest, len(h))
		}
		if widest > 64 {
			t.Fatalf("%s: widest -engine search history has %d operations, over the search's 64", name, widest)
		}
	}
}

// postState is a broken Fetch&Multiply: Apply returns the state after its
// multiply instead of before, which no linearization can explain.
type postState struct{ fmul.Interface }

func (p postState) Apply(id int, f uint64) uint64 { return p.Interface.Apply(id, f) * f }

// TestLinearizeCatchesBrokenObject shows the linearize driver can fail: a
// broken object added to the table is reported FAIL both free-running and
// under a deterministic schedule, where the failure also prints its replay
// line.
func TestLinearizeCatchesBrokenObject(t *testing.T) {
	objects["broken"] = newObject("Fetch&Multiply", "has no ApplyBatch",
		map[string]func(int) fmul.Interface{
			"post": func(n int) fmul.Interface { return postState{fmul.NewPSim(n)} },
		}, fmulOps)
	defer delete(objects, "broken")
	for _, seed := range []uint64{0, 1} {
		c := conf("broken", "post", "linearize", 10, 1)
		c.seed = seed
		var ok bool
		out := stdout(t, func() { ok = pass(t, c) })
		if ok {
			t.Fatalf("seed %d: post-state Fetch&Multiply passed the linearize driver", seed)
		}
		if !strings.Contains(out, "round 0: non-linearizable Fetch&Multiply history") {
			t.Fatalf("seed %d: no verdict line in output:\n%s", seed, out)
		}
		if replay := strings.Contains(out, "replay: -mode linearize -rounds 1 -sched-seed="); replay != (seed != 0) {
			t.Fatalf("seed %d: replay line printed = %v:\n%s", seed, replay, out)
		}
	}
}

// stdout returns what f writes to os.Stdout.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
