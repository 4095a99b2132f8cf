package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Figure 7: avg I/O cost per similarity query (astronomy database)": "figure-7-avg-i-o-cost-per-similarity-query-astronomy-database",
		"Micro: distance calculation":                                      "micro-distance-calculation",
		"---":                                                              "",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("fig99", "small", "", false, "kernels.json", "block.json", "obs.json", "distobs.json", "load.json", "storage.json", "engines.json", "advisor.json"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run("all", "galactic", "", false, "kernels.json", "block.json", "obs.json", "distobs.json", "load.json", "storage.json", "engines.json", "advisor.json"); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestRunMicroWritesCSV runs the cheapest experiment end to end, including
// the CSV output path. Stdout is redirected away to keep test logs clean.
func TestRunMicroWritesCSV(t *testing.T) {
	dir := t.TempDir()

	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	if err := run("micro", "small", dir, false, "kernels.json", "block.json", "obs.json", "distobs.json", "load.json", "storage.json", "engines.json", "advisor.json"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".csv") {
		t.Fatalf("CSV dir contents: %v", entries)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "dim,") {
		t.Errorf("CSV content: %q", string(data))
	}
}
