package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fmul"
	"repro/internal/harness"
	"repro/internal/workload"
)

// runMakers smoke-runs every maker at a small scale and returns the results.
func runMakers(t *testing.T, makers []harness.Maker) []harness.Result {
	t.Helper()
	cfg := harness.Config{Threads: []int{2}, TotalOps: 400, MaxWork: 16, Reps: 1, Seed: 1}
	return harness.Run(cfg, makers)
}

func TestFig2MakersRun(t *testing.T) {
	res := runMakers(t, Fig2Makers())
	if len(res) != 7 { // P-Sim, P-Sim(combine), CLH, lock-free, FC, CombTree, MCS
		t.Fatalf("got %d results", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Impl] = true
		if r.MeanSec <= 0 {
			t.Fatalf("no timing for %s", r.Impl)
		}
	}
	for _, want := range []string{"P-Sim", "P-Sim(combine)", "CLH-lock", "lock-free CAS", "FlatCombining", "CombiningTree", "MCS-lock"} {
		if !names[want] {
			t.Fatalf("missing implementation %q in %v", want, names)
		}
	}
}

func TestFig3StackMakersRun(t *testing.T) {
	res := runMakers(t, Fig3StackMakers())
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestFig3QueueMakersRun(t *testing.T) {
	res := runMakers(t, Fig3QueueMakers())
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestAblationMakersRun(t *testing.T) {
	for _, c := range []struct {
		makers []harness.Maker
		rows   int
	}{
		{AblationBackoffMakers(), 2},
		{AblationPublicationMakers(), 4}, // GC and pooled, at 1 and 8 words
		{AblationQueueMakers(), 2},
	} {
		if res := runMakers(t, c.makers); len(res) != c.rows {
			t.Fatalf("ablation produced %d results, want %d", len(res), c.rows)
		}
	}
}

// TestPSimQueueFIFO: the queue ablation's single-instance queue is FIFO;
// the final 0 is the empty queue's answer.
func TestPSimQueueFIFO(t *testing.T) {
	q := newPSimQueue(1)
	q.Enqueue(0, 7)
	q.Enqueue(0, 8)
	for _, want := range []uint64{7, 8, 0} {
		if v, ok := q.Dequeue(0); v != want || ok != (want != 0) {
			t.Fatalf("Dequeue = %d, %v; want %d", v, ok, want)
		}
	}
}

func TestTable1MeasureShapes(t *testing.T) {
	cfg := harness.Config{Threads: []int{1, 4}, TotalOps: 200, MaxWork: 0, Reps: 1, Seed: 1}
	rows := harness.Run(cfg, Table1Makers())
	if len(rows) != 10 { // 5 algorithms × 2 thread counts
		t.Fatalf("got %d rows", len(rows))
	}
	byAlgo := map[string]map[int]float64{}
	for _, r := range rows {
		if !(r.AccessesPerOp > 0) {
			t.Fatalf("no accesses measured: %+v", r)
		}
		if byAlgo[r.Impl] == nil {
			byAlgo[r.Impl] = map[int]float64{}
		}
		byAlgo[r.Impl][r.Threads] = r.AccessesPerOp
	}
	// At n=1 no helper exists, so every construction's bill is exact.
	for algo, want := range map[string]float64{"Sim": 15, "P-Sim": 2, "P-Sim pooled": 7, "L-Sim(w=2)": 35, "Herlihy-UC": 9} {
		if got := byAlgo[algo][1]; got != want {
			t.Fatalf("%s accesses/op at n=1 = %v, want %v", algo, got, want)
		}
	}
	// Sim must be flat in n (single-word collect regime at these sizes).
	if byAlgo["Sim"][1] != byAlgo["Sim"][4] {
		t.Fatalf("Sim accesses/op not constant: %v", byAlgo["Sim"])
	}
	// Herlihy must grow with n.
	if byAlgo["Herlihy-UC"][4] <= byAlgo["Herlihy-UC"][1] {
		t.Fatalf("Herlihy accesses/op did not grow: %v", byAlgo["Herlihy-UC"])
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1Render(runMakers(t, Table1Makers()))
	for _, want := range []string{"Sim", "L-Sim(w=2)", "Herlihy-UC", "O(1)", "O(kw)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// probe records the factors the fig2 workload applies.
type probe struct{ factors []uint64 }

func (p *probe) Apply(_ int, f uint64) uint64 { p.factors = append(p.factors, f); return 0 }
func (p *probe) Read() uint64                 { return 0 }
func (p *probe) Name() string                 { return "probe" }

func TestFmulMakerAppliesOddFactors(t *testing.T) {
	p := &probe{}
	mk := fmulMaker("x", func(n int) fmul.Interface { return p })
	inst := mk(1)
	rng := workload.NewRNG(1)
	for i := 0; i < 200; i++ {
		inst.Op(0, rng)
	}
	for _, f := range p.factors {
		if f%2 == 0 {
			t.Fatalf("even factor %d would zero the state word quickly", f)
		}
		if f < 3 {
			t.Fatalf("factor %d < 3", f)
		}
	}
}

func TestLargeObjectMakersRun(t *testing.T) {
	res := runMakers(t, LargeObjectMakers(8, 64))
	if len(res) != 4 { // 2 sizes × 2 implementations
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.MeanSec <= 0 {
			t.Fatalf("no timing for %s", r.Impl)
		}
	}
}

// TestMapContentionMakersRun runs the map experiment's maker set with
// single ops and with MSet/MDelete batches.
func TestMapContentionMakersRun(t *testing.T) {
	for _, b := range []int{1, 4} {
		res := runMakers(t, MapMakers(b, 1, 4))
		if len(res) != 2 {
			t.Fatalf("b=%d: got %d results", b, len(res))
		}
		if want := fmt.Sprintf("Map(stripes=4) b=%d", b); res[1].Impl != want {
			t.Fatalf("row %q, want %q", res[1].Impl, want)
		}
	}
}

// TestLargeObjectOpsEquivalent: the P-Sim and L-Sim array objects implement
// the SAME sequential operation — identical op sequences must produce
// identical arrays.
func TestLargeObjectOpsEquivalent(t *testing.T) {
	const size = 32
	p := newArrayPSim(1, size)
	l, items, op := newArrayLSim(1, size)
	rng := workload.NewRNG(99)
	for k := 0; k < 300; k++ {
		arg := [2]uint64{uint64(rng.Intn(size)), uint64(rng.Intn(size))}
		pv := p.Apply(0, arg)
		lv := l.ApplyOp(0, op, arg)
		if pv != lv {
			t.Fatalf("op %d: responses differ: P-Sim %d, L-Sim %d", k, pv, lv)
		}
	}
	final := p.Read()
	for i := 0; i < size; i++ {
		if items[i].Current() != final[i] {
			t.Fatalf("cell %d differs: P-Sim %d, L-Sim %d", i, final[i], items[i].Current())
		}
	}
}
