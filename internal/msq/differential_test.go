package msq

import (
	"fmt"
	"math/rand"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// The differential harness proves the pipeline's determinism claim: for
// every (engine × metric × avoidance mode) combination and a mixed k-NN /
// range / bounded-k-NN batch, running at Concurrency 1, 2 and 8 must give
//
//   - byte-identical answers (exact float equality — the same distance
//     calculations are performed in the same item order, so not even
//     rounding may differ),
//   - identical page-read counts, page visits, and the identical
//     sequential/random split of the simulated disk, and
//   - identical buffer hit/miss counts.
//
// DistCalcs/Avoided may differ between width 1 (live bounds) and widths
// >= 2 (page-start snapshot bounds), but must be identical among all
// widths >= 2 — and identical across every width when avoidance is off.

// diffMaker builds a fresh engine over its own disk and buffer, so the
// I/O counters of independent runs are comparable.
type diffMaker struct {
	name string
	make func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine
}

func diffMakers() []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.New(items, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{PageCapacity: 16, BufferPages: 4, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// diffBatch builds a mixed workload. The first query is a range query so
// that the suffix evaluation of MultiQueryAll exercises both prefetch
// floors: the ε floor (range first) on the first pass and the zero floor
// (k-NN first) on later passes.
func diffBatch(dim int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	point := func() vec.Vector {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	return []Query{
		{ID: 0, Vec: point(), Type: query.NewRange(0.55)},
		{ID: 1, Vec: point(), Type: query.NewKNN(10)},
		{ID: 2, Vec: point(), Type: query.NewBoundedKNN(5, 0.8)},
		{ID: 3, Vec: point(), Type: query.NewKNN(3)},
		{ID: 4, Vec: point(), Type: query.NewRange(0.4)},
		{ID: 5, Vec: point(), Type: query.NewKNN(7)},
	}
}

// diffRun is everything observable about one full batch evaluation.
type diffRun struct {
	answers [][]query.Answer
	stats   Stats
	io      store.IOStats
	hits    int64
	misses  int64
}

func runDifferential(t *testing.T, mk diffMaker, m vec.Metric, mode AvoidanceMode, width int, items []store.Item, dim int, queries []Query) diffRun {
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

// identicalAnswers requires exact equality — no tolerance.
func identicalAnswers(a, b [][]query.Answer) (string, bool) {
	if len(a) != len(b) {
		return fmt.Sprintf("query count %d vs %d", len(a), len(b)), false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return fmt.Sprintf("query %d: %d vs %d answers", q, len(a[q]), len(b[q])), false
		}
		for i := range a[q] {
			if a[q][i].ID != b[q][i].ID || a[q][i].Dist != b[q][i].Dist {
				return fmt.Sprintf("query %d answer %d: (%d, %v) vs (%d, %v)",
					q, i, a[q][i].ID, a[q][i].Dist, b[q][i].ID, b[q][i].Dist), false
			}
		}
	}
	return "", true
}

func TestDifferentialPipeline(t *testing.T) {
	const dim = 4
	items := testDB(11, 300, dim)
	queries := diffBatch(dim, 12)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	modes := []AvoidanceMode{AvoidBoth, AvoidOff, AvoidLemma1, AvoidLemma2}

	for _, mk := range diffMakers() {
		for _, mt := range metrics {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", mk.name, mt.name, mode), func(t *testing.T) {
					seq := runDifferential(t, mk, mt.m, mode, 1, items, dim, queries)
					var wide []diffRun
					for _, width := range []int{2, 8} {
						r := runDifferential(t, mk, mt.m, mode, width, items, dim, queries)
						wide = append(wide, r)
						if diag, ok := identicalAnswers(seq.answers, r.answers); !ok {
							t.Errorf("width %d: answers differ from sequential: %s", width, diag)
						}
						if r.stats.PagesRead != seq.stats.PagesRead {
							t.Errorf("width %d: PagesRead = %d, sequential %d", width, r.stats.PagesRead, seq.stats.PagesRead)
						}
						if r.stats.PageVisits != seq.stats.PageVisits {
							t.Errorf("width %d: PageVisits = %d, sequential %d", width, r.stats.PageVisits, seq.stats.PageVisits)
						}
						if r.io != seq.io {
							t.Errorf("width %d: disk stats %+v, sequential %+v", width, r.io, seq.io)
						}
						if r.hits != seq.hits || r.misses != seq.misses {
							t.Errorf("width %d: buffer hits/misses %d/%d, sequential %d/%d",
								width, r.hits, r.misses, seq.hits, seq.misses)
						}
						if r.stats.MatrixDistCalcs != seq.stats.MatrixDistCalcs {
							t.Errorf("width %d: MatrixDistCalcs = %d, sequential %d",
								width, r.stats.MatrixDistCalcs, seq.stats.MatrixDistCalcs)
						}
						if mode == AvoidOff {
							if r.stats.DistCalcs != seq.stats.DistCalcs {
								t.Errorf("width %d: AvoidOff DistCalcs = %d, sequential %d",
									width, r.stats.DistCalcs, seq.stats.DistCalcs)
							}
							if r.stats.Avoided != 0 || r.stats.AvoidTries != 0 {
								t.Errorf("width %d: AvoidOff counted avoidance: %+v", width, r.stats)
							}
						}
						// Avoidance with snapshot bounds never computes
						// more than no avoidance, and computed + avoided
						// partitions the same offered set.
						if r.stats.DistCalcs > seq.stats.DistCalcs+seq.stats.Avoided {
							t.Errorf("width %d: DistCalcs %d exceeds offered set %d",
								width, r.stats.DistCalcs, seq.stats.DistCalcs+seq.stats.Avoided)
						}
						if r.stats.DistCalcs+r.stats.Avoided != seq.stats.DistCalcs+seq.stats.Avoided {
							t.Errorf("width %d: DistCalcs+Avoided = %d, sequential %d",
								width, r.stats.DistCalcs+r.stats.Avoided, seq.stats.DistCalcs+seq.stats.Avoided)
						}
					}
					// Widths >= 2 share the snapshot-bound evaluation and
					// must agree on every statistic, not just answers.
					if wide[0].stats != wide[1].stats {
						t.Errorf("width 2 and 8 stats differ:\n  2: %+v\n  8: %+v", wide[0].stats, wide[1].stats)
					}
				})
			}
		}
	}
}

// TestDifferentialEnginesMatchScan pins answer identity across physical
// organizations: every indexed engine, under every metric, avoidance mode
// and pipeline width, must return the exact answers of the sequential scan
// — same IDs, bit-identical distances. Pruning may only skip work, never
// change results.
func TestDifferentialEnginesMatchScan(t *testing.T) {
	const dim = 4
	items := testDB(91, 300, dim)
	queries := diffBatch(dim, 92)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	makers := diffMakers()

	for _, mt := range metrics {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
			for _, width := range []int{1, 2, 8} {
				ref := runDifferential(t, makers[0], mt.m, mode, width, items, dim, queries)
				for _, mk := range makers[1:] {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", mk.name, mt.name, mode, width), func(t *testing.T) {
						got := runDifferential(t, mk, mt.m, mode, width, items, dim, queries)
						if diag, ok := identicalAnswers(ref.answers, got.answers); !ok {
							t.Errorf("answers differ from scan: %s", diag)
						}
					})
				}
			}
		}
	}
}

func TestConcurrencyKnob(t *testing.T) {
	items := testDB(1, 64, 3)
	eng := scanEngine(t, items)
	if _, err := New(eng, vec.Euclidean{}, Options{Concurrency: -1}); err == nil {
		t.Error("negative concurrency accepted")
	}
	proc, err := New(eng, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := proc.Concurrency(); got != 1 {
		t.Errorf("zero-value Concurrency() = %d, want 1", got)
	}
	wide := proc.WithConcurrency(8)
	if got := wide.Concurrency(); got != 8 {
		t.Errorf("WithConcurrency(8).Concurrency() = %d", got)
	}
	if wide.Engine() != proc.Engine() || wide.Metric() != proc.Metric() {
		t.Error("WithConcurrency did not share the engine and counting metric")
	}
	if proc.Concurrency() != 1 {
		t.Error("WithConcurrency mutated the original processor")
	}
	if got := proc.WithConcurrency(-3).Concurrency(); got != 1 {
		t.Errorf("WithConcurrency(-3).Concurrency() = %d, want 1", got)
	}
}

// TestDifferentialIncremental checks the incremental entry point: two
// MultiQuery calls sharing a session (the second reuses buffered partial
// answers of the first) must behave identically at every width.
func TestDifferentialIncremental(t *testing.T) {
	const dim = 4
	items := testDB(21, 300, dim)
	queries := diffBatch(dim, 22)
	m := vec.Euclidean{}

	for _, mk := range diffMakers() {
		t.Run(mk.name, func(t *testing.T) {
			run := func(width int) diffRun {
				eng := mk.make(t, items, dim, m)
				proc, err := New(eng, m, Options{Concurrency: width})
				if err != nil {
					t.Fatal(err)
				}
				s := proc.NewSession()
				var total Stats
				// First call completes queries[0] and buffers partials.
				if _, st, err := s.MultiQuery(queries); err != nil {
					t.Fatal(err)
				} else {
					total = total.Add(st)
				}
				// Second call rotates the batch so query 1 completes next,
				// restoring the buffered state from the first call.
				rotated := append(append([]Query(nil), queries[1:]...), queries[0])
				lists, st, err := s.MultiQuery(rotated)
				if err != nil {
					t.Fatal(err)
				}
				total = total.Add(st)
				r := diffRun{stats: total, io: eng.Pager().Disk().Stats()}
				for _, l := range lists {
					r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
				}
				return r
			}
			seq := run(1)
			for _, width := range []int{2, 8} {
				r := run(width)
				if diag, ok := identicalAnswers(seq.answers, r.answers); !ok {
					t.Errorf("width %d: answers differ: %s", width, diag)
				}
				if r.io != seq.io {
					t.Errorf("width %d: disk stats %+v, sequential %+v", width, r.io, seq.io)
				}
				if r.stats.PagesRead != seq.stats.PagesRead || r.stats.PageVisits != seq.stats.PageVisits {
					t.Errorf("width %d: pages read/visited %d/%d, sequential %d/%d",
						width, r.stats.PagesRead, r.stats.PageVisits, seq.stats.PagesRead, seq.stats.PageVisits)
				}
			}
		})
	}
}

// TestDifferentialTraced pins the tracing contract: installing a tracer
// must not perturb anything observable — answers, every Stats counter,
// disk I/O and buffer hit/miss counts stay bit-identical to the untraced
// run at every pipeline width. Traced and untraced runs share one page
// evaluator; this test keeps the tracer's page-grain timing observational.
func TestDifferentialTraced(t *testing.T) {
	const dim = 4
	items := testDB(31, 300, dim)
	queries := diffBatch(dim, 32)
	m := vec.Euclidean{}

	for _, mk := range diffMakers() {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", mk.name, mode, width), func(t *testing.T) {
					bare := runDifferential(t, mk, m, mode, width, items, dim, queries)

					eng := mk.make(t, items, dim, m)
					proc, err := New(eng, m, Options{Avoidance: mode, Concurrency: width})
					if err != nil {
						t.Fatal(err)
					}
					tr := obs.New(obs.Config{SlowQueryThreshold: -1})
					proc = proc.WithTracer(tr)
					lists, stats, err := proc.NewSession().MultiQueryAll(queries)
					if err != nil {
						t.Fatal(err)
					}
					traced := diffRun{stats: stats, io: eng.Pager().Disk().Stats()}
					for _, l := range lists {
						traced.answers = append(traced.answers, append([]query.Answer(nil), l.Answers()...))
					}
					traced.hits, traced.misses, _ = eng.Pager().Buffer().HitRate()

					if diag, ok := identicalAnswers(bare.answers, traced.answers); !ok {
						t.Errorf("traced answers differ from untraced: %s", diag)
					}
					if traced.stats != bare.stats {
						t.Errorf("traced stats differ:\n  untraced: %+v\n  traced:   %+v", bare.stats, traced.stats)
					}
					if traced.io != bare.io {
						t.Errorf("traced disk stats %+v, untraced %+v", traced.io, bare.io)
					}
					if traced.hits != bare.hits || traced.misses != bare.misses {
						t.Errorf("traced buffer hits/misses %d/%d, untraced %d/%d",
							traced.hits, traced.misses, bare.hits, bare.misses)
					}

					// The tracer must actually have seen the run.
					if tr.Queries() == 0 {
						t.Error("tracer recorded no query calls")
					}
					if tr.Snapshot(obs.PhaseKernel).Count == 0 {
						t.Error("tracer recorded no kernel spans")
					}
					if tr.Snapshot(obs.PhasePageWait).Count == 0 {
						t.Error("tracer recorded no page_wait spans")
					}
					if width > 1 && tr.Snapshot(obs.PhaseMerge).Count == 0 {
						t.Error("pipelined run recorded no merge spans")
					}
				})
			}
		}
	}
}
