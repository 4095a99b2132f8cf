package metricdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{Engine: EngineScan},
		{Engine: EngineXTree, XTree: &XTreeOptions{MaxOverlap: 0.2, MinFillRatio: 0.4}},
		{Engine: EngineVAFile, VAFileBits: 8},
		{BufferPages: -1}, // sentinel: unbuffered
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good options %d rejected: %v", i, err)
		}
	}
	bad := []Options{
		{Engine: "btree"},
		{PageCapacity: -1},
		{VAFileBits: -1},
		{Engine: EngineXTree, XTree: &XTreeOptions{MaxOverlap: 1.5}},
		{Engine: EngineXTree, XTree: &XTreeOptions{MinFillRatio: 0.9}},
		{Engine: EngineXTree, XTree: &XTreeOptions{ReinsertFraction: 1}},
		{Engine: EngineXTree, XTree: &XTreeOptions{DirFanout: -3}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
		if _, err := Open(testItems(1, 10, 3), o); err == nil {
			t.Errorf("Open accepted bad options %d: %+v", i, o)
		}
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db, err := Open(testItems(80, 400, 6), Options{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := Vector{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.QueryContext(ctx, q, KNNQuery(5)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled QueryContext error = %v, want context.Canceled", err)
	}

	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	if _, _, err := db.QueryContext(dctx, q, KNNQuery(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired QueryContext error = %v, want context.DeadlineExceeded", err)
	}

	// A live context changes nothing: answers and stats match the
	// context-free path on a fresh, identically built database.
	want, _, err := db.Query(q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.QueryContext(context.Background(), q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("QueryContext returned %d answers, Query %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer %d: QueryContext %+v != Query %+v", i, got[i], want[i])
		}
	}
}

func TestBatchContextCancellationAndResume(t *testing.T) {
	items := testItems(81, 600, 6)
	db, err := Open(items, Options{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{ID: 1, Vec: items[3].Vec, Type: KNNQuery(4)},
		{ID: 2, Vec: items[77].Vec, Type: KNNQuery(4)},
	}

	b := db.NewBatch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.QueryContext(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Batch.QueryContext error = %v, want context.Canceled", err)
	}
	if _, _, err := b.QueryAllContext(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Batch.QueryAllContext error = %v, want context.Canceled", err)
	}

	// The aborted batch resumes: a live context completes the same batch,
	// and the answers match a fresh uncancelled batch.
	got, _, err := b.QueryAllContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.NewBatch().QueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: resumed batch returned %d answers, fresh batch %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Errorf("query %d answer %d: resumed %+v != fresh %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}
}

func TestProcessorStatsFacade(t *testing.T) {
	db, err := Open(testItems(82, 200, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := db.ProcessorStats()
	if st.Avoidance != AvoidBoth {
		t.Errorf("fresh ProcessorStats = %+v", st)
	}
	if st.DistCalcs != 0 {
		t.Errorf("fresh DistCalcs = %d, want 0", st.DistCalcs)
	}
	if _, _, err := db.Query(Vector{0.1, 0.2, 0.3, 0.4}, KNNQuery(3)); err != nil {
		t.Fatal(err)
	}
	after := db.ProcessorStats()
	if after.DistCalcs <= 0 {
		t.Errorf("DistCalcs after a query = %d, want > 0", after.DistCalcs)
	}
	if after.PartialAbandoned > after.DistCalcs {
		t.Errorf("PartialAbandoned %d exceeds DistCalcs %d", after.PartialAbandoned, after.DistCalcs)
	}
}
