package wire

import (
	"context"
	"errors"
	"testing"
	"time"

	"metricdb/internal/fault"
	"metricdb/internal/obs"
	"metricdb/internal/store"
)

// TestServerCounters checks the error-taxonomy accounting: every request
// lands in exactly the right counter (requests / bad_request / engine
// error / refused), the numbers the admin /metrics endpoint exposes.
func TestServerCounters(t *testing.T) {
	var injector *fault.Disk
	srv, addr := startServerCfg(t, ServerConfig{MaxConns: 1}, func(src store.PageSource) (store.PageSource, error) {
		var err error
		injector, err = fault.Wrap(src, fault.Config{Seed: 5, ErrProb: 1, MaxFaults: 1})
		return injector, err
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// The fault budget is one read: the first query fails as engine_error.
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3}); err == nil {
		t.Fatal("injected fault did not surface")
	}
	// Two client mistakes.
	c.Query(QuerySpec{Vector: []float64{0, 0, 0}, Kind: "weird"})      //nolint:errcheck
	c.Query(QuerySpec{Vector: []float64{0, 0, 0}, Kind: "knn", K: -1}) //nolint:errcheck
	// One good query now that the fault budget is spent.
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3}); err != nil {
		t.Fatalf("query after fault budget: %v", err)
	}
	// One refused connection (MaxConns is 1 and c holds the slot).
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2.Ping() //nolint:errcheck // expected overload refusal
	c2.Close()

	if got := srv.RequestCount(); got != 5 {
		t.Errorf("RequestCount = %d, want 5 (ping + 4 queries)", got)
	}
	if got := srv.BadRequestCount(); got != 2 {
		t.Errorf("BadRequestCount = %d, want 2", got)
	}
	if got := srv.EngineErrorCount(); got != 1 {
		t.Errorf("EngineErrorCount = %d, want 1", got)
	}
	if got := srv.RefusedCount(); got != 1 {
		t.Errorf("RefusedCount = %d, want 1", got)
	}
	if got := srv.ConnCount(); got != 1 {
		t.Errorf("ConnCount = %d, want 1", got)
	}
}

// TestRefusedCountsShutdown: connections arriving during a drain are
// refused with code shutting_down and land in the refused counter.
func TestRefusedCountsShutdown(t *testing.T) {
	srv, addr := startServerCfg(t, ServerConfig{}, nil)
	c0, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Ping(); err != nil { // the accept loop is live
		t.Fatal(err)
	}

	// Enter the drain window without closing the listener (Shutdown would
	// race the test's dial), the state a connection arriving mid-drain sees.
	srv.mu.Lock()
	srv.draining = true
	srv.mu.Unlock()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *ServerError
	if err := c.Ping(); !errors.As(err, &se) || se.Code != CodeShutdown {
		t.Fatalf("mid-drain connection got %v, want %s", err, CodeShutdown)
	}
	if got := srv.RefusedCount(); got != 1 {
		t.Errorf("RefusedCount = %d, want 1", got)
	}
}

// TestWireTracerSpans: a tracer in ServerConfig records decode and encode
// spans for each request.
func TestWireTracerSpans(t *testing.T) {
	tr := obs.New(obs.Config{SlowQueryThreshold: -1})
	_, addr := startServerCfg(t, ServerConfig{Tracer: tr}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0.2, 0.4, 0.6}, Kind: "knn", K: 2}); err != nil {
		t.Fatal(err)
	}
	// The server records a response's encode span after flushing it, so
	// the client can hold the reply before the span exists. A connection's
	// requests are served in order: once the ping's reply arrives, the
	// query's spans have been recorded.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Snapshot(obs.PhaseWireDecode).Count; got == 0 {
		t.Error("no wire_decode spans recorded")
	}
	if got := tr.Snapshot(obs.PhaseWireEncode).Count; got == 0 {
		t.Error("no wire_encode spans recorded")
	}
}

// TestClientContext covers the context-aware client calls: a canceled or
// expired context aborts the round trip with the context's error, and the
// documented recovery from an abort is redialing.
func TestClientContext(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A live context behaves exactly like the context-free call.
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("PingContext: %v", err)
	}
	answers, _, err := c.QueryContext(context.Background(), QuerySpec{Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("QueryContext returned %d answers, want 3", len(answers))
	}

	// A pre-canceled context fails before touching the connection, so the
	// same client keeps working afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.PingContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled PingContext = %v, want context.Canceled", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("client broken after upfront cancellation: %v", err)
	}

	// An expired deadline mid-call aborts the round trip; the connection
	// is then poisoned (documented) and recovery is a redial.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer dcancel()
	if _, _, err := c.MultiAllContext(dctx, []QuerySpec{{ID: 1, Vector: []float64{0.1, 0.2, 0.3}, Kind: "knn", K: 2}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired MultiAllContext = %v, want context.DeadlineExceeded", err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.PingContext(context.Background()); err != nil {
		t.Fatalf("redialed client: %v", err)
	}
}
