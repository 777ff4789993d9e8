package v2

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
)

// The conformance corpus lives one level up, next to the specs it
// exercises: internal/check/testdata.
const testdataDir = "../testdata"

// TestConformanceCorpus replays every golden history against the
// compositional driver with EngineBoth, so each verdict is cross-validated
// between the forward engine and the search oracle. File names carry the
// expected verdict: *.good.hist must be accepted, *.bad.hist rejected.
func TestConformanceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(testdataDir, "conformance", "*.hist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("conformance corpus is empty")
	}
	classes := make(map[string]bool)
	for _, path := range files {
		name := filepath.Base(path)
		classes[strings.SplitN(name, ".", 2)[0]] = true
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := ParseHistory(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			opts := DefaultOptions()
			opts.Engine = EngineBoth
			verr := CheckHistory(ops, opts)
			if errors.Is(verr, ErrDisagree) {
				t.Fatalf("engine cross-validation failed: %v", verr)
			}
			switch {
			case strings.Contains(name, ".good."):
				if verr != nil {
					t.Fatalf("good history rejected: %v", verr)
				}
			case strings.Contains(name, ".bad."):
				if !Rejected(verr) {
					t.Fatalf("bad history not rejected (got %v)", verr)
				}
			default:
				t.Fatalf("file name must carry .good. or .bad.: %s", name)
			}
		})
	}
	// Every spec class must be represented in the corpus.
	for _, want := range []string{"stack", "queue", "queue_empty", "counter", "fmul", "register", "map", "blob", "log"} {
		if !classes[want] {
			t.Errorf("conformance corpus has no %q goldens", want)
		}
	}
}

// TestRegressionCorpusRejectedByBothEngines asserts that each minimized
// non-linearizable history is rejected by the forward engine AND by the
// search independently — a soundness tripwire for both.
func TestRegressionCorpusRejectedByBothEngines(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(testdataDir, "regression", "*.hist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("regression corpus has %d histories, want at least 3", len(files))
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := ParseHistory(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, engine := range []Engine{EngineForward, EngineSearch} {
				opts := DefaultOptions()
				opts.Engine = engine
				if verr := CheckHistory(ops, opts); !Rejected(verr) {
					t.Errorf("engine %v does not reject (got %v)", engine, verr)
				}
			}
		})
	}
}

// TestSearchDecidesEveryCommittedHistory: the Wing–Gong search's
// configuration budget costs no verdict — every committed conformance,
// regression and fuzz-seed history is still decided by the search alone,
// never answered with ErrTooLarge.
func TestSearchDecidesEveryCommittedHistory(t *testing.T) {
	hists := make(map[string][]check.Operation)
	for _, dir := range []string{"conformance", "regression"} {
		files, err := filepath.Glob(filepath.Join(testdataDir, dir, "*.hist"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s corpus: %d files, %v", dir, len(files), err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := ParseHistory(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			hists[dir+"/"+filepath.Base(path)] = ops
		}
	}
	for i, seed := range fuzzSeeds {
		hists[fmt.Sprintf("fuzz seed %d", i)] = decodeHistory(seed)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzHistory", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %d files, %v", len(files), err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		seed, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte fuzz corpus entry: %v", path, err)
		}
		hists["fuzz corpus/"+filepath.Base(path)] = decodeHistory([]byte(seed))
	}
	for name, ops := range hists {
		opts := DefaultOptions()
		opts.Engine = EngineSearch
		if err := CheckHistory(ops, opts); errors.Is(err, check.ErrTooLarge) {
			t.Errorf("%s (%d ops): search gave no verdict: %v", name, len(ops), err)
		}
	}
}
