package metricdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metricdb/internal/dataset"
)

func layoutBatch(dim int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	point := func() Vector {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	return []Query{
		{ID: 0, Vec: point(), Type: RangeQuery(0.5)},
		{ID: 1, Vec: point(), Type: KNNQuery(9)},
		{ID: 2, Vec: point(), Type: BoundedKNNQuery(4, 0.7)},
		{ID: 3, Vec: point(), Type: KNNQuery(3)},
	}
}

func compareLayoutAnswers(t *testing.T, label string, want, got [][]Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d answer lists", label, len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			t.Fatalf("%s: query %d: %d vs %d answers", label, q, len(want[q]), len(got[q]))
		}
		for i := range want[q] {
			a, b := want[q][i], got[q][i]
			if a.ID != b.ID {
				t.Fatalf("%s: query %d answer %d: id %d vs %d", label, q, i, a.ID, b.ID)
			}
			if math.Float64bits(a.Dist) != math.Float64bits(b.Dist) {
				t.Fatalf("%s: query %d answer %d: dist %v vs %v", label, q, i, a.Dist, b.Dist)
			}
		}
	}
}

// TestOpenLayouts: for every engine, the soa layout must answer like the
// default AoS database, bit-identically in answers and Stats (its rows
// engage only on avoidance-free pages, so run with AvoidOff to actually
// exercise them), and the retired f32 and quant layouts must be refused.
func TestOpenLayouts(t *testing.T) {
	const dim, n, capacity = 4, 260, 16
	items := testItems(91, n, dim)
	batch := layoutBatch(dim, 92)

	for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile} {
		base := Options{Engine: kind, PageCapacity: capacity, BufferPages: 4, Avoidance: AvoidOff}
		aosDB, err := Open(items, base)
		if err != nil {
			t.Fatal(err)
		}
		aosAns, aosStats, err := aosDB.NewBatch().QueryAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []string{"soa"} {
			t.Run(fmt.Sprintf("%s/%s", kind, layout), func(t *testing.T) {
				opts := base
				opts.Layout = layout
				db, err := Open(items, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := db.ProcessorStats().Layout; got != layout {
					t.Errorf("ProcessorStats().Layout = %q, want %q", got, layout)
				}
				ans, stats, err := db.NewBatch().QueryAll(batch)
				if err != nil {
					t.Fatal(err)
				}
				compareLayoutAnswers(t, layout, aosAns, ans)
				if stats != aosStats {
					t.Errorf("soa stats differ:\n  aos: %+v\n  soa: %+v", aosStats, stats)
				}
			})
		}
		for _, retired := range []string{"f32", "quant"} {
			t.Run(fmt.Sprintf("%s/%s", kind, retired), func(t *testing.T) {
				opts := base
				opts.Layout = retired
				if _, err := Open(items, opts); err == nil {
					t.Errorf("retired layout %q opened", retired)
				}
			})
		}
	}
}

// TestOpenStoredLayouts covers both persistence directions: a version-2
// dataset whose pages already carry blocks serves every layout directly
// (the scan, which reads the dataset's own pages, then reports soa
// whatever the option says), and a plain version-1 dataset serves soa by
// columnizing pages on read (the WrapColumns path). Answers always match
// the in-memory AoS database. The retired f32 and quant layouts are
// refused on either dataset.
func TestOpenStoredLayouts(t *testing.T) {
	const dim, n, capacity = 4, 260, 16
	items := testItems(93, n, dim)
	batch := layoutBatch(dim, 94)

	aosDB, err := Open(items, Options{PageCapacity: capacity, BufferPages: 4, Avoidance: AvoidOff})
	if err != nil {
		t.Fatal(err)
	}
	aosAns, _, err := aosDB.NewBatch().QueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}

	v1 := t.TempDir()
	if err := dataset.SaveDir(v1, items, dataset.SaveOptions{PageCapacity: capacity, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	v2 := t.TempDir()
	if err := dataset.SaveDir(v2, items, dataset.SaveOptions{
		PageCapacity: capacity, NoSync: true, Columnar: true,
	}); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []struct{ name, path string }{{"v1", v1}, {"v2", v2}} {
		for _, kind := range []EngineKind{EngineScan, EngineXTree, EngineVAFile} {
			for _, layout := range []string{"aos", "soa"} {
				t.Run(fmt.Sprintf("%s/%s/%s", dir.name, kind, layout), func(t *testing.T) {
					db, err := OpenStored(dir.path, Options{
						Engine: kind, PageCapacity: capacity, BufferPages: 4,
						Avoidance: AvoidOff, Layout: layout,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close() //nolint:errcheck
					if _, ok := db.Stored(); !ok {
						t.Error("stored DB does not report persistent storage")
					}
					want := layout
					if dir.name == "v2" && kind == EngineScan {
						want = "soa"
					}
					if got := db.ProcessorStats().Layout; got != want {
						t.Errorf("ProcessorStats().Layout = %q, want %q", got, want)
					}
					ans, _, err := db.NewBatch().QueryAll(batch)
					if err != nil {
						t.Fatal(err)
					}
					compareLayoutAnswers(t, layout, aosAns, ans)
				})
			}
			for _, retired := range []string{"f32", "quant"} {
				t.Run(fmt.Sprintf("%s/%s/%s", dir.name, kind, retired), func(t *testing.T) {
					db, err := OpenStored(dir.path, Options{Engine: kind, PageCapacity: capacity, Layout: retired})
					if err == nil {
						db.Close() //nolint:errcheck
						t.Errorf("retired layout %q opened", retired)
					}
				})
			}
		}
	}
}

// TestLayoutOptionValidation: the layout knobs reject mistakes before any
// data is touched.
func TestLayoutOptionValidation(t *testing.T) {
	if err := (Options{Layout: "columnar"}).Validate(); err == nil {
		t.Error("unknown layout accepted")
	}
	for _, retired := range []string{"f32", "quant"} {
		if err := (Options{Layout: retired}).Validate(); err == nil {
			t.Errorf("retired layout %q accepted", retired)
		}
		if _, err := Open(testItems(95, 40, 3), Options{Layout: retired}); err == nil {
			t.Errorf("Open accepted retired layout %q", retired)
		}
	}
	for _, ok := range []string{"", "aos", "soa"} {
		if err := (Options{Layout: ok}).Validate(); err != nil {
			t.Errorf("layout %q rejected: %v", ok, err)
		}
	}
}
