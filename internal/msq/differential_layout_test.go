package msq

import (
	"context"
	"fmt"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
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
// DistCalcs/Avoided/AvoidTries, PartialAbandoned). The row kernels are
// required to reproduce the scalar kernels' decisions exactly.

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

// TestDifferentialLayoutSoA: for every engine × metric × avoidance mode
// and session count, the SoA run must be indistinguishable from the AoS
// run — answers and the full Stats record compare with ==.
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
						aos := runDifferential(t, aosMakers[i], mt.m, mode, width, items, dim, queries)
						soa := runDifferential(t, soaMakers[i], mt.m, mode, width, items, dim, queries)
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

// explainSessions runs EXPLAIN over queries on width concurrent sessions
// of proc (see onSessions).
func explainSessions(t *testing.T, proc *Processor, width int, queries []Query) sessionResult {
	t.Helper()
	return onSessions(t, proc, width, func(s *Session) (sessionResult, error) {
		ex, err := s.ExplainAllContext(context.Background(), queries)
		if err != nil {
			return sessionResult{}, err
		}
		return sessionResult{profiles: ex.Queries, stats: ex.Stats}, nil
	})
}

// TestDifferentialLayoutSoAExplain pins EXPLAIN attribution on the row
// path: EXPLAIN over an SoA run must report the same batch stats as the
// unprofiled SoA run and the same per-query offered sets as an AoS
// EXPLAIN, for a lone session and for eight sessions profiling at once.
func TestDifferentialLayoutSoAExplain(t *testing.T) {
	const dim = 4
	items := testDB(43, 300, dim)
	queries := diffBatch(dim, 44)
	m := vec.Euclidean{}
	aosMk := diffMakers()[0]
	soaMk := layoutMakers()[0]

	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			plain := runDifferential(t, soaMk, m, AvoidOff, width, items, dim, queries)

			proc, err := New(soaMk.make(t, items, dim, m), m, Options{Avoidance: AvoidOff})
			if err != nil {
				t.Fatal(err)
			}
			ex := explainSessions(t, proc, width, queries)
			if ex.stats != plain.stats {
				t.Errorf("explain stats differ from plain soa run:\n  plain:   %+v\n  explain: %+v", plain.stats, ex.stats)
			}

			aosProc, err := New(aosMk.make(t, items, dim, m), m, Options{Avoidance: AvoidOff})
			if err != nil {
				t.Fatal(err)
			}
			aosEx := explainSessions(t, aosProc, width, queries)
			for q := range ex.profiles {
				if ex.profiles[q].Offered() != aosEx.profiles[q].Offered() ||
					ex.profiles[q].DistCalcs != aosEx.profiles[q].DistCalcs ||
					ex.profiles[q].PagesVisited != aosEx.profiles[q].PagesVisited {
					t.Errorf("query %d profile differs:\n  aos: %+v\n  soa: %+v", q, aosEx.profiles[q], ex.profiles[q])
				}
			}
		})
	}
}
