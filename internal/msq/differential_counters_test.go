package msq

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// TestDifferentialAvoidanceCounters pins the Lemma 1/2 avoidance counters
// to literal values: any rewrite of the page evaluator must reproduce not
// only the answers but exactly the same distance calculations, probes,
// avoidances, abandonments and page visits — in total and per query, with
// the same lemma attribution. The batch is 24 mixed k-NN / range /
// bounded k-NN queries, run on scan, X-tree and pivot engines under each
// avoidance mode, by a lone session (w1) and by two sessions of one
// processor at once (w2). The scan-lift engine packs 64 items
// per page, so the k-NN pruning distances of the first pass start at +Inf
// and turn finite mid-page, which exercises the Lemma-1 raise lift of the
// live merge.
func TestDifferentialAvoidanceCounters(t *testing.T) {
	const dim, n = 5, 700
	items := testDB(23, n, dim)
	queries := countersBatch(dim, 24)

	type pinned struct {
		answers, profiles                                    uint64
		calcs, tries, avoided, abandoned, visits, lem1, lem2 int64
	}
	// Recorded from the per-pair probe loop that preceded the column sweep.
	want := map[string]pinned{
		"scan-lift/both/w1":   {0x17bfe7a4777ea248, 0x982fe73285d32745, 5748, 46266, 11052, 639, 264, 5336, 5716},
		"scan-lift/lemma1/w1": {0x17bfe7a4777ea248, 0x81e73f430490e635, 8446, 68742, 8354, 2690, 264, 8354, 0},
		"scan-lift/lemma2/w1": {0x17bfe7a4777ea248, 0xcd79cc22cd5eea7a, 9575, 71508, 7225, 3899, 264, 0, 7225},
		"scan/both/w1":        {0x17bfe7a4777ea248, 0x156a07b10d3ba802, 5748, 46266, 11052, 640, 1056, 5336, 5716},
		"scan/lemma1/w1":      {0x17bfe7a4777ea248, 0x65a8e837b9cb0ad1, 8446, 68742, 8354, 2690, 1056, 8354, 0},
		"scan/lemma2/w1":      {0x17bfe7a4777ea248, 0x22ffd8f19c97405d, 9575, 71508, 7225, 3900, 1056, 0, 7225},
		"xtree/both/w1":       {0x17bfe7a4777ea248, 0x96c4781ac60c078, 3202, 8052, 1127, 464, 364, 456, 671},
		"xtree/lemma1/w1":     {0x17bfe7a4777ea248, 0x7b053aeddf3cf2d8, 3729, 10390, 600, 590, 364, 600, 0},
		"xtree/lemma2/w1":     {0x17bfe7a4777ea248, 0xd139e28fb6baa232, 3618, 9299, 711, 641, 364, 0, 711},
		"pivot/both/w1":       {0x17bfe7a4777ea248, 0x6d18cf667e978719, 5140, 30544, 6740, 584, 744, 3191, 3549},
		"pivot/lemma1/w1":     {0x17bfe7a4777ea248, 0xaec0c97507e90ba8, 6833, 44404, 5047, 1567, 744, 5047, 0},
		"pivot/lemma2/w1":     {0x17bfe7a4777ea248, 0x22b62b166d14049e, 7480, 45526, 4400, 2267, 744, 0, 4400},
	}

	makers := []diffMaker{{"scan-lift", func(t *testing.T, items []store.Item, _ int, _ vec.Metric) engine.Engine {
		t.Helper()
		e, err := scan.New(items, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}}}
	for _, mk := range diffMakers() {
		switch mk.name {
		case "scan", "xtree", "pivot":
			makers = append(makers, mk)
		}
	}
	for _, mk := range makers {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidLemma1, AvoidLemma2} {
			// Every session of a concurrent run must reproduce the lone
			// session's pinned counters.
			key := fmt.Sprintf("%s/%s/w1", mk.name, mode)
			for _, width := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/w%d", mk.name, mode, width), func(t *testing.T) {
					newProc := func() *Processor {
						eng := mk.make(t, items, dim, vec.Euclidean{})
						p, err := New(eng, vec.Euclidean{}, Options{Avoidance: mode})
						if err != nil {
							t.Fatal(err)
						}
						return p
					}
					run := runSessions(t, newProc(), width, queries)
					ex := explainSessions(t, newProc(), width, queries)
					if ex.stats != run.stats {
						t.Errorf("EXPLAIN stats %+v, plain run %+v", ex.stats, run.stats)
					}
					got := pinned{
						answers:   hashAnswers(run.answers),
						profiles:  hashProfiles(ex.profiles),
						calcs:     run.stats.DistCalcs,
						tries:     run.stats.AvoidTries,
						avoided:   run.stats.Avoided,
						abandoned: run.stats.PartialAbandoned,
						visits:    run.stats.PageVisits,
					}
					for _, p := range ex.profiles {
						got.lem1 += p.Lemma1Avoided
						got.lem2 += p.Lemma2Avoided
					}
					w, ok := want[key]
					if !ok || got != w {
						t.Errorf("counters differ from the pinned values\n got: %q: {%#x, %#x, %d, %d, %d, %d, %d, %d, %d},\nwant: %+v",
							key, got.answers, got.profiles, got.calcs, got.tries, got.avoided, got.abandoned, got.visits, got.lem1, got.lem2, w)
						for _, p := range ex.profiles {
							t.Logf("query %2d: probes %d lemma1 %d lemma2 %d calcs %d abandoned %d pages %d answers %d",
								p.ID, p.AvoidTries, p.Lemma1Avoided, p.Lemma2Avoided, p.DistCalcs, p.Abandoned, p.PagesVisited, p.Answers)
						}
					}
				})
			}
		}
	}
}

// countersBatch builds m queries cycling through k-NN, range and bounded
// k-NN with varying parameters; the first is a k-NN query so the first
// pass starts with an infinite pruning distance on the scan.
func countersBatch(dim, m int) []Query {
	rng := rand.New(rand.NewSource(29))
	qs := make([]Query, m)
	for i := range qs {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		var tp query.Type
		switch i % 3 {
		case 0:
			tp = query.NewKNN(2 + i%11)
		case 1:
			tp = query.NewRange(0.25 + 0.05*float64(i%7))
		default:
			tp = query.NewBoundedKNN(3+i%9, 0.4+0.05*float64(i%5))
		}
		qs[i] = Query{ID: uint64(i), Vec: v, Type: tp}
	}
	return qs
}

// hashAnswers digests every answer list exactly: lengths, IDs and the
// distances' float bits.
func hashAnswers(lists [][]query.Answer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, as := range lists {
		put(uint64(len(as)))
		for _, a := range as {
			put(uint64(a.ID))
			put(math.Float64bits(a.Dist))
		}
	}
	return h.Sum64()
}

// hashProfiles digests the per-query EXPLAIN attribution: probes, the
// lemma split of the avoided pairs, calculations, abandonments, page
// visits and answer counts.
func hashProfiles(ps []Profile) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps {
		for _, x := range []int64{p.AvoidTries, p.Lemma1Avoided, p.Lemma2Avoided, p.DistCalcs, p.Abandoned, p.PagesVisited, int64(p.Answers)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
