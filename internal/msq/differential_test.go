package msq

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// The differential harness runs one mixed k-NN / range / bounded-k-NN
// batch over every engine × metric × avoidance mode and compares runs that
// must not differ: indexed engines against the scan, traced against
// untraced, SoA pages against AoS pages, file-backed against simulated
// storage, incremental against one-shot evaluation. Answers compare with
// exact float equality — not even rounding may differ. A cell name ends in
// /wN, the number of sessions of one processor that run the batch at once
// over the shared engine, pager and buffer: the parallelism a server gets
// from its concurrent connections. Every session runs the processor's one
// sequential page loop, so N sessions must each produce the answers and
// costs of a lone session.

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

// diffBatch builds a mixed workload. The first query is a range query, so
// the suffix evaluation of MultiQueryAll runs a first pass under a constant
// ε pruning distance and later passes led by k-NN queries whose pruning
// distances tighten as they go.
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

// runDifferential builds a fresh engine and processor and runs queries on
// width concurrent sessions of it (see onSessions).
func runDifferential(t *testing.T, mk diffMaker, m vec.Metric, mode AvoidanceMode, width int, items []store.Item, dim int, queries []Query) diffRun {
	t.Helper()
	proc, err := New(mk.make(t, items, dim, m), m, Options{Avoidance: mode})
	if err != nil {
		t.Fatal(err)
	}
	return runSessions(t, proc, width, queries)
}

// runSessions runs queries as one MultiQueryAll on each of width
// concurrent sessions of proc. The disk and buffer counters are recorded at
// width 1 only: concurrent sessions interleave their traffic on the shared
// pager, so reads and hits depend on the schedule.
func runSessions(t *testing.T, proc *Processor, width int, queries []Query) diffRun {
	t.Helper()
	res := onSessions(t, proc, width, func(s *Session) (sessionResult, error) {
		lists, stats, err := s.MultiQueryAll(queries)
		return sessionResult{answers: answersOf(lists), stats: stats}, err
	})
	r := diffRun{answers: res.answers, stats: res.stats}
	if width == 1 {
		pager := proc.Engine().Pager()
		r.io = pager.Disk().Stats()
		if buf := pager.Buffer(); buf != nil {
			r.hits, r.misses, _ = buf.HitRate()
		}
	}
	return r
}

// sessionResult is what one session's batch call produced.
type sessionResult struct {
	answers  [][]query.Answer
	profiles []Profile // EXPLAIN calls only
	stats    Stats
}

// onSessions runs call on width fresh sessions of proc at once. Every
// session must produce the same answers, profiles and session-local
// counters. The shared counters — DistCalcs, PartialAbandoned and
// PivotDistCalcs, which every session charges to the processor's one
// counting metric and engine — are measured over the whole run and must
// split evenly over the sessions. The result is one session's, with the
// shared counters set to that even share and PagesRead, which depends on
// how the sessions interleave on the shared pager, left zero. At width 1
// it is the lone call's result as returned.
func onSessions(t *testing.T, proc *Processor, width int, call func(*Session) (sessionResult, error)) sessionResult {
	t.Helper()
	if width == 1 {
		r, err := call(proc.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	acct := proc.NewSession().beginAccounting()
	results := make([]sessionResult, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for w := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = call(proc.NewSession())
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("session %d of %d: %v", w, width, err)
		}
	}
	local := func(s Stats) Stats {
		s.PagesRead, s.DistCalcs, s.PartialAbandoned, s.PivotDistCalcs = 0, 0, 0, 0
		return s
	}
	r := results[0]
	r.stats = local(r.stats)
	for w, o := range results[1:] {
		if diag, ok := identicalAnswers(r.answers, o.answers); !ok {
			t.Errorf("session %d of %d: answers differ from session 0: %s", w+1, width, diag)
		}
		if !slices.Equal(r.profiles, o.profiles) {
			t.Errorf("session %d of %d: profiles differ from session 0:\n  0: %+v\n  %d: %+v", w+1, width, r.profiles, w+1, o.profiles)
		}
		if got := local(o.stats); got != r.stats {
			t.Errorf("session %d of %d: stats differ from session 0:\n  0: %+v\n  %d: %+v", w+1, width, r.stats, w+1, got)
		}
	}
	var total Stats
	acct.finish(&total)
	for _, c := range []struct {
		name  string
		total int64
		share *int64
	}{
		{"DistCalcs", total.DistCalcs - int64(width)*r.stats.MatrixDistCalcs, &r.stats.DistCalcs},
		{"PartialAbandoned", total.PartialAbandoned, &r.stats.PartialAbandoned},
		{"PivotDistCalcs", total.PivotDistCalcs, &r.stats.PivotDistCalcs},
	} {
		if c.total%int64(width) != 0 {
			t.Errorf("%s total %d does not split evenly over %d sessions", c.name, c.total, width)
		}
		*c.share = c.total / int64(width)
	}
	return r
}

// answersOf copies each answer list's current answers.
func answersOf(lists []*query.AnswerList) [][]query.Answer {
	out := make([][]query.Answer, len(lists))
	for i, l := range lists {
		out[i] = append([]query.Answer(nil), l.Answers()...)
	}
	return out
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

// TestDifferentialEnginesMatchScan pins answer identity across physical
// organizations: every indexed engine, under every metric and avoidance
// mode, must return the exact answers of the scan — same IDs,
// bit-identical distances. Pruning may only skip work, never change
// results. Sessions running at once must each also cost what a lone
// session costs.
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
			ref := runDifferential(t, makers[0], mt.m, mode, 1, items, dim, queries)
			for _, width := range []int{1, 2, 8} {
				for _, mk := range makers[1:] {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", mk.name, mt.name, mode, width), func(t *testing.T) {
						got := runDifferential(t, mk, mt.m, mode, width, items, dim, queries)
						if diag, ok := identicalAnswers(ref.answers, got.answers); !ok {
							t.Errorf("answers differ from scan: %s", diag)
						}
						if width == 1 {
							return
						}
						lone := runDifferential(t, mk, mt.m, mode, 1, items, dim, queries)
						lone.stats.PagesRead = 0
						if got.stats != lone.stats {
							t.Errorf("per-session stats differ from a lone session:\n  lone: %+v\n  w%d:   %+v", lone.stats, width, got.stats)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialIncremental checks the incremental entry point: a
// MultiQuery call that completes queries[0] and buffers partial answers,
// followed by a MultiQueryAll over the rotated batch that resumes from
// those buffers, must end with exactly the answers of a one-shot
// MultiQueryAll on a fresh session — and neither session may examine a
// page twice for the same query.
func TestDifferentialIncremental(t *testing.T) {
	const dim = 4
	items := testDB(21, 300, dim)
	queries := diffBatch(dim, 22)
	m := vec.Euclidean{}
	rotated := append(append([]Query(nil), queries[1:]...), queries[0])

	for _, mk := range diffMakers() {
		t.Run(mk.name, func(t *testing.T) {
			newSession := func() *Session {
				proc, err := New(mk.make(t, items, dim, m), m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return proc.NewSession()
			}

			inc := newSession()
			_, first, err := inc.MultiQuery(queries)
			if err != nil {
				t.Fatal(err)
			}
			incLists, rest, err := inc.MultiQueryAll(rotated)
			if err != nil {
				t.Fatal(err)
			}
			visitedOnce(t, "incremental", inc, first.PageVisits+rest.PageVisits)

			one := newSession()
			oneLists, oneStats, err := one.MultiQueryAll(rotated)
			if err != nil {
				t.Fatal(err)
			}
			visitedOnce(t, "one-shot", one, oneStats.PageVisits)

			if diag, ok := identicalAnswers(answersOf(oneLists), answersOf(incLists)); !ok {
				t.Errorf("incremental answers differ from one-shot: %s", diag)
			}
		})
	}
}

// visitedOnce checks that a session examined no page twice for one query:
// every page visit marks the page processed for that query, so the
// visits counted over the session's calls must equal the processed sets'
// total size.
func visitedOnce(t *testing.T, label string, s *Session, visits int64) {
	t.Helper()
	var processed int64
	for _, st := range s.states {
		processed += int64(len(st.processed))
	}
	if visits != processed {
		t.Errorf("%s: %d page visits, %d distinct (page, query) pairs", label, visits, processed)
	}
}

// TestDifferentialTraced pins the tracing contract: installing a tracer
// must not perturb anything observable — answers, every Stats counter,
// disk I/O and buffer hit/miss counts stay bit-identical to the untraced
// run, for a lone session and for sessions sharing the traced processor.
// Traced and untraced runs share one page evaluator; this test keeps the
// tracer's page-grain timing observational.
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

					proc, err := New(mk.make(t, items, dim, m), m, Options{Avoidance: mode})
					if err != nil {
						t.Fatal(err)
					}
					tr := obs.New(obs.Config{SlowQueryThreshold: -1})
					traced := runSessions(t, proc.WithTracer(tr), width, queries)

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

					// The tracer must actually have seen every session.
					if got := tr.Queries(); got < int64(width) {
						t.Errorf("tracer recorded %d query calls, want at least %d", got, width)
					}
					if tr.Snapshot(obs.PhaseKernel).Count == 0 {
						t.Error("tracer recorded no kernel spans")
					}
					if tr.Snapshot(obs.PhasePageWait).Count == 0 {
						t.Error("tracer recorded no page_wait spans")
					}
				})
			}
		}
	}
}
