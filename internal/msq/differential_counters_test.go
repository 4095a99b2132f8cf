package msq

import (
	"context"
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
// avoidance mode at widths 1 and 2. The scan-lift engine packs 64 items
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
		"scan-lift/both/w2":   {0x17bfe7a4777ea248, 0x88b5d9fa3a06351a, 5964, 47622, 10836, 642, 264, 5282, 5554},
		"scan-lift/lemma1/w1": {0x17bfe7a4777ea248, 0x81e73f430490e635, 8446, 68742, 8354, 2690, 264, 8354, 0},
		"scan-lift/lemma1/w2": {0x17bfe7a4777ea248, 0xe7bcc16d75184b79, 8623, 69597, 8177, 2660, 264, 8177, 0},
		"scan-lift/lemma2/w1": {0x17bfe7a4777ea248, 0xcd79cc22cd5eea7a, 9575, 71508, 7225, 3899, 264, 0, 7225},
		"scan-lift/lemma2/w2": {0x17bfe7a4777ea248, 0xd12e6253b377fe2c, 9794, 72645, 7006, 3898, 264, 0, 7006},
		"scan/both/w1":        {0x17bfe7a4777ea248, 0x156a07b10d3ba802, 5748, 46266, 11052, 640, 1056, 5336, 5716},
		"scan/both/w2":        {0x17bfe7a4777ea248, 0x63435e8bb66eee73, 5790, 46553, 11010, 648, 1056, 5331, 5679},
		"scan/lemma1/w1":      {0x17bfe7a4777ea248, 0x65a8e837b9cb0ad1, 8446, 68742, 8354, 2690, 1056, 8354, 0},
		"scan/lemma1/w2":      {0x17bfe7a4777ea248, 0xb790b176e5fe9456, 8491, 68941, 8309, 2696, 1056, 8309, 0},
		"scan/lemma2/w1":      {0x17bfe7a4777ea248, 0x22ffd8f19c97405d, 9575, 71508, 7225, 3900, 1056, 0, 7225},
		"scan/lemma2/w2":      {0x17bfe7a4777ea248, 0xcbb03f18340a79be, 9624, 71746, 7176, 3913, 1056, 0, 7176},
		"xtree/both/w1":       {0x17bfe7a4777ea248, 0x96c4781ac60c078, 3202, 8052, 1127, 464, 364, 456, 671},
		"xtree/both/w2":       {0x17bfe7a4777ea248, 0x98b045aea0d617a2, 3214, 8088, 1115, 464, 364, 446, 669},
		"xtree/lemma1/w1":     {0x17bfe7a4777ea248, 0x7b053aeddf3cf2d8, 3729, 10390, 600, 590, 364, 600, 0},
		"xtree/lemma1/w2":     {0x17bfe7a4777ea248, 0x77770af4b387b06c, 3740, 10437, 589, 589, 364, 589, 0},
		"xtree/lemma2/w1":     {0x17bfe7a4777ea248, 0xd139e28fb6baa232, 3618, 9299, 711, 641, 364, 0, 711},
		"xtree/lemma2/w2":     {0x17bfe7a4777ea248, 0xf071323c8e3b49f1, 3620, 9307, 709, 638, 364, 0, 709},
		"pivot/both/w1":       {0x17bfe7a4777ea248, 0x6d18cf667e978719, 5140, 30544, 6740, 584, 744, 3191, 3549},
		"pivot/both/w2":       {0x17bfe7a4777ea248, 0x18e90d64d0a6f6b3, 5191, 30835, 6689, 601, 744, 3168, 3521},
		"pivot/lemma1/w1":     {0x17bfe7a4777ea248, 0xaec0c97507e90ba8, 6833, 44404, 5047, 1567, 744, 5047, 0},
		"pivot/lemma1/w2":     {0x17bfe7a4777ea248, 0x99a3b6dd92302866, 6877, 44601, 5003, 1594, 744, 5003, 0},
		"pivot/lemma2/w1":     {0x17bfe7a4777ea248, 0x22b62b166d14049e, 7480, 45526, 4400, 2267, 744, 0, 4400},
		"pivot/lemma2/w2":     {0x17bfe7a4777ea248, 0x82c952fb61ae3f11, 7525, 45774, 4355, 2295, 744, 0, 4355},
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
			for _, width := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/w%d", mk.name, mode, width)
				t.Run(name, func(t *testing.T) {
					newProc := func() *Processor {
						eng := mk.make(t, items, dim, vec.Euclidean{})
						p, err := New(eng, vec.Euclidean{}, Options{Avoidance: mode, Concurrency: width})
						if err != nil {
							t.Fatal(err)
						}
						return p
					}
					lists, stats, err := newProc().NewSession().MultiQueryAll(queries)
					if err != nil {
						t.Fatal(err)
					}
					ex, err := newProc().ExplainContext(context.Background(), queries)
					if err != nil {
						t.Fatal(err)
					}
					if ex.Stats != stats {
						t.Errorf("EXPLAIN stats %+v, plain run %+v", ex.Stats, stats)
					}
					got := pinned{
						answers:   hashAnswers(lists),
						profiles:  hashProfiles(ex.Queries),
						calcs:     stats.DistCalcs,
						tries:     stats.AvoidTries,
						avoided:   stats.Avoided,
						abandoned: stats.PartialAbandoned,
						visits:    stats.PageVisits,
					}
					for _, p := range ex.Queries {
						got.lem1 += p.Lemma1Avoided
						got.lem2 += p.Lemma2Avoided
					}
					w, ok := want[name]
					if !ok || got != w {
						t.Errorf("counters differ from the pinned values\n got: %q: {%#x, %#x, %d, %d, %d, %d, %d, %d, %d},\nwant: %+v",
							name, got.answers, got.profiles, got.calcs, got.tries, got.avoided, got.abandoned, got.visits, got.lem1, got.lem2, w)
						for _, p := range ex.Queries {
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
func hashAnswers(lists []*query.AnswerList) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, l := range lists {
		as := l.Answers()
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
