package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePasses(t *testing.T) {
	base := write(t, "base.json", `[{"results":[
		{"identical":true,"speedup":2.0,"pages_read":100,"dist_calcs":5000,"seconds":9.0},
		{"identical":true,"speedup":3.5,"pages_read":100,"dist_calcs":5000,"seconds":4.0}]}]`)
	fresh := write(t, "fresh.json", `[{"results":[
		{"identical":true,"speedup":1.95,"pages_read":100,"dist_calcs":5100,"seconds":0.1},
		{"identical":true,"speedup":3.6,"pages_read":100,"dist_calcs":5000,"seconds":0.1}]}]`)
	regressions, compared, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Errorf("unexpected regressions: %v", regressions)
	}
	// 2 verdicts + 2 speedups + 2 pages_read + 2 dist_calcs; seconds is
	// wall clock and must not be judged.
	if compared != 8 {
		t.Errorf("compared %d metrics, want 8", compared)
	}
}

func TestCompareFlagsCounterRegression(t *testing.T) {
	base := write(t, "base.json", `{"pages_read":100}`)
	fresh := write(t, "fresh.json", `{"pages_read":115}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "pages_read") {
		t.Errorf("regressions = %v, want one on pages_read", regressions)
	}
}

func TestCompareFlagsVerdictFlip(t *testing.T) {
	base := write(t, "base.json", `{"identical":true}`)
	fresh := write(t, "fresh.json", `{"identical":false}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "flipped") {
		t.Errorf("regressions = %v, want one verdict flip", regressions)
	}
}

func TestCompareFlagsSpeedupDrop(t *testing.T) {
	base := write(t, "base.json", `{"speedup":4.0,"avoided":1000}`)
	fresh := write(t, "fresh.json", `{"speedup":2.5,"avoided":850}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 2 {
		t.Errorf("regressions = %v, want speedup and avoided", regressions)
	}
}

func TestCompareFlagsMissingMetricAndShortArray(t *testing.T) {
	base := write(t, "base.json", `{"results":[{"speedup":2.0},{"speedup":3.0}]}`)
	fresh := write(t, "fresh.json", `{"results":[{"seconds":1.0}]}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var missing, short bool
	for _, r := range regressions {
		if strings.Contains(r, "missing") {
			missing = true
		}
		if strings.Contains(r, "entries") {
			short = true
		}
	}
	if !missing || !short {
		t.Errorf("regressions = %v, want a missing-metric and a short-array failure", regressions)
	}
}

func TestMissingBaselineDetection(t *testing.T) {
	existing := write(t, "base.json", `{}`)
	if baselineMissing(existing) {
		t.Error("existing baseline reported missing")
	}
	if !baselineMissing(filepath.Join(t.TempDir(), "BENCH_new.json")) {
		t.Error("nonexistent baseline not reported missing")
	}
}

func TestMissingBaselineMessageIsActionable(t *testing.T) {
	msg := missingBaselineMsg("BENCH_load.json", ".bench-fresh/BENCH_load.json")
	for _, want := range []string{
		"no committed baseline at BENCH_load.json",
		"cp .bench-fresh/BENCH_load.json BENCH_load.json",
		"git add BENCH_load.json",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("message missing %q:\n%s", want, msg)
		}
	}
}

func TestCompareIgnoresAddedFields(t *testing.T) {
	base := write(t, "base.json", `{"speedup":2.0}`)
	fresh := write(t, "fresh.json", `{"speedup":2.1,"new_metric":123,"identical":false}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Errorf("added fresh-only fields must not be judged, got %v", regressions)
	}
}

// TestRegressionLinesNameBaselineAndKey: CI interleaves many pairs, so
// every regression line must name its offending baseline file and the full
// metric path on its own.
func TestRegressionLinesNameBaselineAndKey(t *testing.T) {
	base := write(t, "BENCH_advisor.json", `{"results":[{"engine":"scan","mape_calibrated":0.05,"improved":true}]}`)
	fresh := write(t, "fresh.json", `{"results":[{"engine":"scan","mape_calibrated":0.50,"improved":false}]}`)
	regressions, compared, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 2 {
		t.Errorf("compared %d metrics, want 2 (improved + mape_calibrated)", compared)
	}
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want 2", regressions)
	}
	for _, r := range regressions {
		if !strings.Contains(r, "BENCH_advisor.json") {
			t.Errorf("regression line does not name the baseline file: %q", r)
		}
	}
	var sawMape, sawImproved bool
	for _, r := range regressions {
		sawMape = sawMape || strings.Contains(r, "/results[0]/mape_calibrated")
		sawImproved = sawImproved || strings.Contains(r, "/results[0]/improved")
	}
	if !sawMape || !sawImproved {
		t.Errorf("regression lines missing metric paths: %v", regressions)
	}
}

// TestCompareMatchesInsertedRowByKey: a row inserted mid-table must not
// shift every later row onto the wrong baseline.
func TestCompareMatchesInsertedRowByKey(t *testing.T) {
	base := write(t, "base.json", `{"results":[
		{"dim":4,"layout":"aos","dist_calcs":100,"identical":true},
		{"dim":4,"layout":"soa","dist_calcs":200,"identical":true}]}`)
	fresh := write(t, "fresh.json", `{"results":[
		{"dim":4,"layout":"aos","dist_calcs":100,"identical":true},
		{"dim":4,"layout":"rows","dist_calcs":900,"identical":false},
		{"dim":4,"layout":"soa","dist_calcs":200,"identical":true}]}`)
	regressions, compared, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Errorf("inserted row caused regressions: %v", regressions)
	}
	if compared != 4 {
		t.Errorf("compared %d metrics, want 4", compared)
	}
}

// TestCompareMatchesReorderedRowsByKey: the same rows in a different order
// compare clean.
func TestCompareMatchesReorderedRowsByKey(t *testing.T) {
	base := write(t, "base.json", `[
		{"engine":"scan","m":1,"dist_calcs":100},
		{"engine":"scan","m":8,"dist_calcs":300},
		{"engine":"xtree","m":1,"dist_calcs":50}]`)
	fresh := write(t, "fresh.json", `[
		{"engine":"xtree","m":1,"dist_calcs":50},
		{"engine":"scan","m":1,"dist_calcs":100},
		{"engine":"scan","m":8,"dist_calcs":300}]`)
	regressions, compared, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 || compared != 3 {
		t.Errorf("reordered rows: %d compared, regressions %v", compared, regressions)
	}
}

// TestCompareReportsRemovedRowByKey: a baseline row with no fresh match is
// one regression naming the row's key, not a cascade of false ones.
func TestCompareReportsRemovedRowByKey(t *testing.T) {
	base := write(t, "base.json", `{"results":[
		{"dim":4,"layout":"aos","dist_calcs":100},
		{"dim":4,"layout":"f32","dist_calcs":900},
		{"dim":4,"layout":"soa","dist_calcs":100}]}`)
	fresh := write(t, "fresh.json", `{"results":[
		{"dim":4,"layout":"aos","dist_calcs":100},
		{"dim":4,"layout":"soa","dist_calcs":100}]}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "{dim=4,layout=f32}") {
		t.Errorf("regressions = %v, want one naming the removed f32 row", regressions)
	}
}

// TestCompareIgnoresShrunkAxisList: an array that holds no judged metric
// (a list of sweep axis values) may shrink without a regression.
func TestCompareIgnoresShrunkAxisList(t *testing.T) {
	base := write(t, "base.json", `{"layouts":["aos","soa","f32"],"speedup":[2.0,3.0]}`)
	fresh := write(t, "fresh.json", `{"layouts":["aos","soa"],"speedup":[2.0]}`)
	regressions, _, err := compareFiles(base, fresh, 0.10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "/speedup: baseline has 2 entries") {
		t.Errorf("regressions = %v, want only the shrunk speedup array", regressions)
	}
}
