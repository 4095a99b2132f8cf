package msq

import (
	"math/rand"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// BenchmarkMultiQueryAll measures a whole multi-query batch per iteration
// and reports the deterministic counters per batch next to the time
// (dist_calcs/op, avoid_tries/op, avoided/op). Run with -benchmem:
// allocations per op must stay flat in the page count, because the page
// loop's scratch (the sweep's undecided lists, qds, raises) is pre-sized
// once per pass and reused across pages.
//
// The scan-m100 case is the knn-batch workload's shape at a fifth of its
// size: a 20-d near-uniform scan with 32 KiB pages, m=100 k=10 queries
// under AvoidBoth, where avoidance decisions outnumber the distances
// computed.
func BenchmarkMultiQueryAll(b *testing.B) {
	const n, dim, m = 4096, 16, 12
	items := testDB(5, n, dim)
	rng := rand.New(rand.NewSource(6))
	queries := make([]Query, m)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = Query{ID: uint64(i + 1), Vec: v, Type: query.NewKNN(8)}
	}

	b.Run("scan/seq", func(b *testing.B) {
		e, err := scan.New(items, 32, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchBatch(b, e, queries)
	})
	b.Run("xtree/seq", func(b *testing.B) {
		tr, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 32, DirFanout: 8, BufferPages: 0})
		if err != nil {
			b.Fatal(err)
		}
		benchBatch(b, tr, queries)
	})

	b.Run("scan-m100/seq", func(b *testing.B) {
		const dim, m = 20, 100
		items, err := dataset.NearUniform(1, 20000, dim, 8, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		picks, err := dataset.SampleQueries(int64(len(items))*31, items, m)
		if err != nil {
			b.Fatal(err)
		}
		queries := make([]Query, m)
		for i, it := range picks {
			queries[i] = Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(10)}
		}
		e, err := scan.New(items, store.PageCapacityForBlockSize(32768, dim), 0)
		if err != nil {
			b.Fatal(err)
		}
		benchBatch(b, e, queries)
	})
}

// benchBatch runs the batch b.N times on one processor over eng and
// reports the per-batch counters.
func benchBatch(b *testing.B, eng engine.Engine, queries []Query) {
	proc, err := New(eng, vec.Euclidean{}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var total Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := proc.NewSession().MultiQueryAll(queries)
		if err != nil {
			b.Fatal(err)
		}
		total = total.Add(st)
	}
	per := func(x int64) float64 { return float64(x) / float64(b.N) }
	b.ReportMetric(per(total.DistCalcs), "dist_calcs/op")
	b.ReportMetric(per(total.AvoidTries), "avoid_tries/op")
	b.ReportMetric(per(total.Avoided), "avoided/op")
}
