package msq

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// readCounter wraps an engine and counts its ReadPage calls.
type readCounter struct {
	engine.Engine
	reads atomic.Int64
}

func (r *readCounter) ReadPage(pid store.PageID) (*store.Page, error) {
	r.reads.Add(1)
	return r.Engine.ReadPage(pid)
}

// TestSeedPagesObserved: every page a multi-query call reads is observed,
// the seed pages of new k-NN queries included. On an X-tree k-NN batch,
// where seeding fires, the tracer's page_wait count must equal the
// engine's ReadPage call count, and — each read page being evaluated as
// one pass — so must the kernel count; EXPLAIN's page_wait must be
// non-zero too.
func TestSeedPagesObserved(t *testing.T) {
	const dim = 4
	items := testDB(51, 600, dim)
	var queries []Query
	for i := 0; i < 8; i++ {
		queries = append(queries, Query{ID: uint64(i), Vec: items[i*70].Vec, Type: query.NewKNN(5)})
	}
	eng := &readCounter{Engine: xtreeEngine(t, items, dim)}
	proc, err := New(eng, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Config{SlowQueryThreshold: -1})
	ex, err := proc.WithTracer(tr).ExplainContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	reads := eng.reads.Load()
	if reads == 0 {
		t.Fatal("the batch read no pages")
	}
	if waits := tr.Snapshot(obs.PhasePageWait).Count; waits != reads {
		t.Errorf("tracer page_wait count %d, ReadPage calls %d", waits, reads)
	}
	if kernels := tr.Snapshot(obs.PhaseKernel).Count; kernels != reads {
		t.Errorf("tracer kernel count %d, ReadPage calls %d", kernels, reads)
	}
	if ex.PhaseNs[obs.PhasePageWait.String()] <= 0 {
		t.Errorf("EXPLAIN recorded no page_wait time: %v", ex.PhaseNs)
	}
}

// TestTracedOverhead is the enabled-tracer gate: a traced MultiQueryAll
// must run within 10% of the untraced one. The batch is the obs
// benchmark's astronomy shape — scan, near-uniform 20-d data, m=100 k-NN
// queries, AvoidBoth — where tens of millions of avoidance probes make
// any per-pair clock read visible. Each run uses its own engine, so the
// untraced run's pager carries no tracer.
//
// Run via `make obsgate`. Skipped in -short mode and under the race
// detector, where timing comparisons are meaningless.
func TestTracedOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; run via make obsgate")
	}
	if raceEnabled {
		t.Skip("timing gate is meaningless under the race detector")
	}
	const dim, m = 20, 100
	items, err := dataset.NearUniform(1, 20000, dim, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	picks, err := dataset.SampleQueries(int64(len(items))*31, items, m)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, m)
	for i, it := range picks {
		queries[i] = Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(10)}
	}
	capacity := store.PageCapacityForBlockSize(32768, dim)
	pages := (len(items) + capacity - 1) / capacity
	newProc := func(tr *obs.Tracer) *Processor {
		eng, err := scan.New(items, capacity, store.DefaultBufferPages(pages))
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(eng, vec.Euclidean{}, Options{Avoidance: AvoidBoth})
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			p = p.WithTracer(tr)
		}
		return p
	}
	bare := newProc(nil)
	traced := newProc(obs.New(obs.Config{SlowQueryThreshold: -1}))

	measure := func(p *Processor) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			if _, _, err := p.NewSession().MultiQueryAll(queries); err != nil {
				t.Fatal(err)
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best
	}
	measure(bare) // warm up
	measure(traced)

	// Interleave and accept the best ratio of a few rounds: the gate must
	// flake on neither scheduling noise nor host load, only on per-pair
	// instrumentation creeping back into the traced path.
	bestRatio := 1e9
	for round := 0; round < 5 && bestRatio > 1.10; round++ {
		b := measure(bare)
		h := measure(traced)
		if ratio := float64(h) / float64(b); ratio < bestRatio {
			bestRatio = ratio
		}
	}
	t.Logf("traced/untraced wall: best ratio %.4f (gate 1.10)", bestRatio)
	if bestRatio > 1.10 {
		t.Errorf("traced run %.1f%% slower than untraced, over the 10%% gate", (bestRatio-1)*100)
	}
}
