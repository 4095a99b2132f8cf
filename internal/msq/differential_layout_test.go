package msq

import (
	"fmt"
	"math"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// The layout differential harness pins the tentpole contract of the
// columnar layouts:
//
//   - LayoutSoA is bit-identical to LayoutAoS in answers AND in every
//     statistic (I/O, buffer behaviour, DistCalcs/Avoided/AvoidTries,
//     PartialAbandoned) at every pipeline width — the row kernels are
//     required to reproduce the scalar kernels' decisions exactly.
//   - LayoutQuant is bit-identical in answers, page reads and page
//     visits; only the CPU-side disposal of pairs may shift (filtered
//     pairs move out of DistCalcs/Avoided into QuantFiltered, and the
//     thinner known lists may change later avoidance decisions). The
//     three disposals still partition the identical offered set.
//   - LayoutF32 answers the same IDs with distances within a documented
//     rounding bound of the float64 run where its rows engage (no
//     avoidance interleaving), and is bit-identical where they don't.

// layoutMakers mirrors diffMakers but materializes the given sibling
// representations on every page at build time.
func layoutMakers(spec store.ColumnSpec) []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.NewWithConfig(items, scan.Config{PageCapacity: 16, BufferPages: 4, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{PageCapacity: 16, BufferPages: 4, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columns: spec})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// runLayout evaluates the batch on a fresh engine with the given layout.
func runLayout(t *testing.T, mk diffMaker, m vec.Metric, mode AvoidanceMode, width int, layout Layout, items []store.Item, dim int, queries []Query) diffRun {
	t.Helper()
	eng := mk.make(t, items, dim, m)
	proc, err := New(eng, m, Options{Avoidance: mode, Concurrency: width, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	lists, stats, err := proc.NewSession().MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	r := diffRun{stats: stats, io: eng.Pager().Disk().Stats()}
	for _, l := range lists {
		r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
	}
	if buf := eng.Pager().Buffer(); buf != nil {
		r.hits, r.misses, _ = buf.HitRate()
	}
	return r
}

// TestDifferentialLayoutSoA: for every engine × metric × avoidance mode ×
// width, the SoA run must be indistinguishable from the AoS run — answers
// and the full Stats record compare with ==.
func TestDifferentialLayoutSoA(t *testing.T) {
	const dim = 4
	items := testDB(41, 300, dim)
	queries := diffBatch(dim, 42)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	aosMakers := diffMakers()
	soaMakers := layoutMakers(store.ColumnSpec{Columnar: true})

	for i := range aosMakers {
		for _, mt := range metrics {
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
				for _, width := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", aosMakers[i].name, mt.name, mode, width), func(t *testing.T) {
						aos := runLayout(t, aosMakers[i], mt.m, mode, width, LayoutAoS, items, dim, queries)
						soa := runLayout(t, soaMakers[i], mt.m, mode, width, LayoutSoA, items, dim, queries)
						if diag, ok := identicalAnswers(aos.answers, soa.answers); !ok {
							t.Errorf("soa answers differ from aos: %s", diag)
						}
						if soa.stats != aos.stats {
							t.Errorf("soa stats differ:\n  aos: %+v\n  soa: %+v", aos.stats, soa.stats)
						}
						if soa.io != aos.io {
							t.Errorf("soa disk stats %+v, aos %+v", soa.io, aos.io)
						}
						if soa.hits != aos.hits || soa.misses != aos.misses {
							t.Errorf("soa buffer hits/misses %d/%d, aos %d/%d",
								soa.hits, soa.misses, aos.hits, aos.misses)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialLayoutSoAExplain pins EXPLAIN attribution on the row
// path: EXPLAIN over an SoA run must report the same batch stats as the
// unprofiled SoA run and the same per-query offered sets as an AoS
// EXPLAIN.
func TestDifferentialLayoutSoAExplain(t *testing.T) {
	const dim = 4
	items := testDB(43, 300, dim)
	queries := diffBatch(dim, 44)
	m := vec.Euclidean{}
	aosMk := diffMakers()[0]
	soaMk := layoutMakers(store.ColumnSpec{Columnar: true})[0]

	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			plain := runLayout(t, soaMk, m, AvoidOff, width, LayoutSoA, items, dim, queries)

			eng := soaMk.make(t, items, dim, m)
			proc, err := New(eng, m, Options{Avoidance: AvoidOff, Concurrency: width, Layout: LayoutSoA})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := proc.ExplainContext(t.Context(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Stats != plain.stats {
				t.Errorf("explain stats differ from plain soa run:\n  plain:   %+v\n  explain: %+v", plain.stats, ex.Stats)
			}

			aosEng := aosMk.make(t, items, dim, m)
			aosProc, err := New(aosEng, m, Options{Avoidance: AvoidOff, Concurrency: width})
			if err != nil {
				t.Fatal(err)
			}
			aosEx, err := aosProc.ExplainContext(t.Context(), queries)
			if err != nil {
				t.Fatal(err)
			}
			for q := range ex.Queries {
				if ex.Queries[q].Offered() != aosEx.Queries[q].Offered() ||
					ex.Queries[q].DistCalcs != aosEx.Queries[q].DistCalcs ||
					ex.Queries[q].PagesVisited != aosEx.Queries[q].PagesVisited {
					t.Errorf("query %d profile differs:\n  aos: %+v\n  soa: %+v", q, aosEx.Queries[q], ex.Queries[q])
				}
			}
		})
	}
}

// TestDifferentialLayoutQuant: the quantized pre-filter may only move
// pairs between the three CPU disposals; everything a caller can observe
// about answers and I/O stays bit-identical, and the disposals partition
// the same offered set as the AoS run.
func TestDifferentialLayoutQuant(t *testing.T) {
	const dim = 4
	items := testDB(45, 300, dim)
	queries := diffBatch(dim, 46)
	m := vec.Euclidean{}

	lo, hi := store.ItemCoordinateBounds(items, dim)
	grid, err := vec.BuildQuantGrid(8, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	aosMakers := diffMakers()
	quantMakers := layoutMakers(store.ColumnSpec{Columnar: true, Quant: grid})

	filteredSomething := false
	for i := range aosMakers {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", aosMakers[i].name, mode, width), func(t *testing.T) {
					aos := runLayout(t, aosMakers[i], m, mode, width, LayoutAoS, items, dim, queries)
					qr := runLayout(t, quantMakers[i], m, mode, width, LayoutQuant, items, dim, queries)
					if diag, ok := identicalAnswers(aos.answers, qr.answers); !ok {
						t.Errorf("quant answers differ from aos: %s", diag)
					}
					if qr.stats.PagesRead != aos.stats.PagesRead || qr.stats.PageVisits != aos.stats.PageVisits {
						t.Errorf("quant pages read/visited %d/%d, aos %d/%d",
							qr.stats.PagesRead, qr.stats.PageVisits, aos.stats.PagesRead, aos.stats.PageVisits)
					}
					if qr.io != aos.io {
						t.Errorf("quant disk stats %+v, aos %+v", qr.io, aos.io)
					}
					if qr.stats.QuantFiltered < 0 {
						t.Errorf("negative QuantFiltered %d", qr.stats.QuantFiltered)
					}
					if qr.stats.QuantFiltered > 0 {
						filteredSomething = true
					}
					offeredAos := aos.stats.DistCalcs + aos.stats.Avoided
					offeredQuant := qr.stats.DistCalcs + qr.stats.Avoided + qr.stats.QuantFiltered
					if offeredQuant != offeredAos {
						t.Errorf("offered set not partitioned: quant %d (calc %d + avoided %d + filtered %d), aos %d",
							offeredQuant, qr.stats.DistCalcs, qr.stats.Avoided, qr.stats.QuantFiltered, offeredAos)
					}
					if mode == AvoidOff {
						// Without avoidance the filter can only remove work.
						if qr.stats.DistCalcs != aos.stats.DistCalcs-qr.stats.QuantFiltered {
							t.Errorf("AvoidOff: DistCalcs %d, want %d - %d",
								qr.stats.DistCalcs, aos.stats.DistCalcs, qr.stats.QuantFiltered)
						}
					}
				})
			}
		}
	}
	if !filteredSomething {
		t.Error("quant filter rejected no pair in any configuration; the layout is untested")
	}
}

// TestDifferentialLayoutF32: where the float32 rows engage (no avoidance
// interleaving) the answers must keep the float64 run's IDs with
// distances inside the rounding bound; with avoidance on the layout falls
// back to exact float64 and must be bit-identical.
func TestDifferentialLayoutF32(t *testing.T) {
	const dim = 4
	items := testDB(47, 300, dim)
	queries := diffBatch(dim, 48)
	m := vec.Euclidean{}
	aosMakers := diffMakers()
	f32Makers := layoutMakers(store.ColumnSpec{Columnar: true, F32: true})

	// Coordinates are in [0,1], so a euclidean distance at dim 4 is at
	// most 2; float32 rounding of inputs and accumulator keeps the error
	// orders of magnitude below this (see DESIGN.md).
	const bound = 1e-5

	for i := range aosMakers {
		for _, width := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w%d", aosMakers[i].name, width), func(t *testing.T) {
				aos := runLayout(t, aosMakers[i], m, AvoidOff, width, LayoutAoS, items, dim, queries)
				f32 := runLayout(t, f32Makers[i], m, AvoidOff, width, LayoutF32, items, dim, queries)
				if len(aos.answers) != len(f32.answers) {
					t.Fatalf("query count %d vs %d", len(aos.answers), len(f32.answers))
				}
				for q := range aos.answers {
					if len(aos.answers[q]) != len(f32.answers[q]) {
						t.Errorf("query %d: %d aos answers, %d f32 answers", q, len(aos.answers[q]), len(f32.answers[q]))
						continue
					}
					for j := range aos.answers[q] {
						a, b := aos.answers[q][j], f32.answers[q][j]
						if a.ID != b.ID {
							t.Errorf("query %d answer %d: id %d vs %d", q, j, a.ID, b.ID)
						}
						if d := math.Abs(a.Dist - b.Dist); d > bound {
							t.Errorf("query %d answer %d: |Δdist| = %g exceeds %g", q, j, d, bound)
						}
					}
				}
				// I/O must not move: the same pages are visited in the
				// same order regardless of distance rounding.
				if f32.stats.PagesRead != aos.stats.PagesRead || f32.io != aos.io {
					t.Errorf("f32 I/O differs: %+v vs %+v", f32.io, aos.io)
				}

				// With avoidance on, multi-query pages interleave pruning
				// state, the f32 rows stand down, and the run must be
				// bit-identical to AoS.
				aosAv := runLayout(t, aosMakers[i], m, AvoidBoth, width, LayoutAoS, items, dim, queries)
				f32Av := runLayout(t, f32Makers[i], m, AvoidBoth, width, LayoutF32, items, dim, queries)
				if diag, ok := identicalAnswers(aosAv.answers, f32Av.answers); !ok {
					t.Errorf("AvoidBoth: f32 answers differ from aos: %s", diag)
				}
				if f32Av.stats != aosAv.stats {
					t.Errorf("AvoidBoth: f32 stats differ:\n  aos: %+v\n  f32: %+v", aosAv.stats, f32Av.stats)
				}
			})
		}
	}
}

// TestLayoutF32Unsupported: metrics without a float32 row kernel must be
// rejected at construction, not silently served float64.
func TestLayoutF32Unsupported(t *testing.T) {
	items := testDB(49, 64, 3)
	eng := scanEngine(t, items)
	mink, err := vec.NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, mink, Options{Layout: LayoutF32}); err == nil {
		t.Error("LayoutF32 with a Minkowski metric accepted; no f32 kernel exists")
	}
	if _, err := New(eng, mink, Options{Layout: LayoutSoA}); err != nil {
		t.Errorf("LayoutSoA with a Minkowski metric rejected: %v", err)
	}
}
