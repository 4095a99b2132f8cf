package msq

import (
	"context"
	"testing"

	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// explainBatch is a mixed range/k-NN workload over the shared test dataset.
func explainBatch(items []store.Item) []Query {
	return []Query{
		{ID: 1, Vec: items[3].Vec, Type: query.NewRange(0.4)},
		{ID: 2, Vec: items[17].Vec, Type: query.NewKNN(5)},
		{ID: 3, Vec: items[41].Vec, Type: query.NewRange(0.25)},
		{ID: 4, Vec: items[59].Vec, Type: query.NewKNN(3)},
	}
}

// TestExplainStrictlyObservational: the profiling run must be a real run —
// same answers, same batch Stats as MultiQueryAll on an identical
// processor, with the per-query attribution summing to the batch counters.
func TestExplainStrictlyObservational(t *testing.T) {
	items := testDB(7, 400, 4)
	qs := explainBatch(items)

	plain, err := New(scanEngine(t, items), vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	answers, stats, err := plain.MultiQuery(qs)
	if err != nil {
		t.Fatal(err)
	}

	profiled, err := New(scanEngine(t, items), vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := profiled.ExplainContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}

	if ex.Stats != stats {
		t.Errorf("profiled stats = %+v, plain = %+v", ex.Stats, stats)
	}
	if ex.Engine != "scan" || ex.Avoidance != "both" {
		t.Errorf("batch header = %s/%s", ex.Engine, ex.Avoidance)
	}
	if len(ex.Queries) != len(qs) {
		t.Fatalf("%d profiles for %d queries", len(ex.Queries), len(qs))
	}
	var dist, avoided, tries, abandoned int64
	for i, p := range ex.Queries {
		if p.ID != qs[i].ID {
			t.Errorf("profile %d has id %d, want %d", i, p.ID, qs[i].ID)
		}
		if p.Answers != answers[i].Len() {
			t.Errorf("query %d: profile reports %d answers, plain run found %d",
				p.ID, p.Answers, answers[i].Len())
		}
		if p.PagesVisited <= 0 {
			t.Errorf("query %d visited no pages", p.ID)
		}
		dist += p.DistCalcs
		avoided += p.Lemma1Avoided + p.Lemma2Avoided
		tries += p.AvoidTries
		abandoned += p.Abandoned
	}
	if dist != stats.DistCalcs {
		t.Errorf("profile dist calcs sum to %d, batch counted %d", dist, stats.DistCalcs)
	}
	if avoided != stats.Avoided {
		t.Errorf("profile avoidance sums to %d, batch counted %d", avoided, stats.Avoided)
	}
	if tries != stats.AvoidTries {
		t.Errorf("profile tries sum to %d, batch counted %d", tries, stats.AvoidTries)
	}
	if abandoned != stats.PartialAbandoned {
		t.Errorf("profile abandonments sum to %d, batch counted %d", abandoned, stats.PartialAbandoned)
	}
}

// TestExplainBufferAndPhaseFields: with a buffered pager the profile
// reports the call's pool deltas and a consistent hit ratio, and the
// wall-time fields are populated.
func TestExplainBufferAndPhaseFields(t *testing.T) {
	items := testDB(13, 300, 3)
	e, err := scan.New(items, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(e, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.ExplainContext(context.Background(), explainBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if ex.BufferHits+ex.BufferMisses <= 0 {
		t.Fatal("buffered run recorded no pool activity")
	}
	want := float64(ex.BufferHits) / float64(ex.BufferHits+ex.BufferMisses)
	if ex.BufferHitRatio != want {
		t.Errorf("hit ratio = %g, want %g", ex.BufferHitRatio, want)
	}
	if ex.WallNs <= 0 {
		t.Error("wall time not recorded")
	}
	if ex.PhaseNs["kernel"] <= 0 {
		t.Errorf("phase wall times = %v, want a kernel entry", ex.PhaseNs)
	}
}
