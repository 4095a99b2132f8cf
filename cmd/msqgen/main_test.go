package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"metricdb"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
)

func TestRunGeneratesAllKinds(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		kind string
		dim  int
	}{
		{"uniform", 6},
		{"nearuniform", 12},
		{"clustered", 8},
	}
	for _, c := range cases {
		out := filepath.Join(dir, c.kind+".gob")
		if err := run(out, "gob", 0, c.kind, 500, c.dim, 4, 0.05, 4, c.kind == "clustered", 0, 7, "aos", false); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		items, err := dataset.ReadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if len(items) != 500 || items[0].Vec.Dim() != c.dim {
			t.Errorf("%s: %d items of dim %d", c.kind, len(items), items[0].Vec.Dim())
		}
	}
}

// TestRunDirFormatRoundTrip: the default dir format must load back the
// exact items the gob format records — the two encodings of one generator
// run are bit-identical — and the manifest carries the provenance attrs.
func TestRunDirFormatRoundTrip(t *testing.T) {
	base := t.TempDir()
	gobOut := filepath.Join(base, "ds.gob")
	dirOut := filepath.Join(base, "ds.dir")
	if err := run(gobOut, "gob", 0, "clustered", 400, 5, 4, 0.05, 0, false, 0.1, 9, "aos", false); err != nil {
		t.Fatal(err)
	}
	if err := run(dirOut, "dir", 16, "clustered", 400, 5, 4, 0.05, 0, false, 0.1, 9, "aos", false); err != nil {
		t.Fatal(err)
	}
	fromGob, err := dataset.ReadAny(gobOut)
	if err != nil {
		t.Fatal(err)
	}
	fromDir, err := dataset.ReadAny(dirOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromGob) != len(fromDir) {
		t.Fatalf("%d gob items vs %d dir items", len(fromGob), len(fromDir))
	}
	for i := range fromGob {
		if fromGob[i].ID != fromDir[i].ID || fromGob[i].Label != fromDir[i].Label {
			t.Fatalf("item %d metadata differs", i)
		}
		for d := range fromGob[i].Vec {
			if math.Float64bits(fromGob[i].Vec[d]) != math.Float64bits(fromDir[i].Vec[d]) {
				t.Fatalf("item %d coord %d differs across formats", i, d)
			}
		}
	}
	fd, err := store.OpenFileDisk(dirOut, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	man := fd.Manifest()
	if man.Attrs["kind"] != "clustered" || man.Attrs["seed"] != "9" || man.PageCapacity != 16 {
		t.Errorf("manifest provenance: %+v", man)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "dir", 0, "uniform", 10, 2, 1, 0, 1, false, 0, 1, "aos", false); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "x"), "dir", 0, "weird", 10, 2, 1, 0, 1, false, 0, 1, "aos", false); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "x"), "tar", 0, "uniform", 10, 2, 1, 0, 1, false, 0, 1, "aos", false); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "x"), "dir", 0, "nearuniform", 10, 2, 1, 0, 99, false, 0, 1, "aos", false); err == nil {
		t.Error("bad intrinsic dimension accepted")
	}
}

// TestAdviceLineSurfacesWarning: an estimator fallback must appear in the
// stdout advice line itself, not only on stderr — a piped consumer must
// never read a silently degraded ranking.
func TestAdviceLineSurfacesWarning(t *testing.T) {
	healthy := metricdb.Advice{Engine: metricdb.EngineXTree, IntrinsicDim: 5.2, Reason: "tree retains selectivity"}
	if got := adviceLine(healthy); !strings.Contains(got, "advice: engine=xtree") || strings.Contains(got, "warning") {
		t.Errorf("healthy advice line wrong: %q", got)
	}
	degraded := healthy
	degraded.Warning = "intrinsic-dimension estimate failed: duplicated data"
	got := adviceLine(degraded)
	if !strings.Contains(got, "warning: intrinsic-dimension estimate failed") {
		t.Errorf("fallback warning missing from advice line: %q", got)
	}
}
