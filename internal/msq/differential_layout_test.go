package msq

import (
	"fmt"
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

// The layout differential harness pins the contract of the columnar (SoA)
// layout: an engine whose pages carry float64 blocks — which select the
// blocked row kernels — is bit-identical to the engine built without them
// in answers AND in every statistic (I/O, buffer behaviour,
// DistCalcs/Avoided/AvoidTries, PartialAbandoned) at every pipeline width.
// The row kernels are required to reproduce the scalar kernels' decisions
// exactly.

// layoutMakers mirrors diffMakers but materializes a float64 block on
// every page at build time.
func layoutMakers() []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.NewWithConfig(items, scan.Config{PageCapacity: 16, BufferPages: 4, Columnar: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m, Columnar: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{PageCapacity: 16, BufferPages: 4, Metric: m, Columnar: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columnar: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m, Columnar: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// runLayout evaluates the batch on a fresh engine built by mk.
func runLayout(t *testing.T, mk diffMaker, m vec.Metric, mode AvoidanceMode, width int, items []store.Item, dim int, queries []Query) diffRun {
	t.Helper()
	eng := mk.make(t, items, dim, m)
	proc, err := New(eng, m, Options{Avoidance: mode, Concurrency: width})
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
	soaMakers := layoutMakers()

	for i := range aosMakers {
		for _, mt := range metrics {
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
				for _, width := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", aosMakers[i].name, mt.name, mode, width), func(t *testing.T) {
						aos := runLayout(t, aosMakers[i], mt.m, mode, width, items, dim, queries)
						soa := runLayout(t, soaMakers[i], mt.m, mode, width, items, dim, queries)
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
	soaMk := layoutMakers()[0]

	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			plain := runLayout(t, soaMk, m, AvoidOff, width, items, dim, queries)

			eng := soaMk.make(t, items, dim, m)
			proc, err := New(eng, m, Options{Avoidance: AvoidOff, Concurrency: width})
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
