// Package parallel simulates the shared-nothing parallel query processor of
// §5.3: the database is declustered over s servers, each holding its
// partition on a private simulated disk with a private engine, and every
// similarity query runs on all servers concurrently against s-times smaller
// data. Per-query answers are merged, which is correct because every
// server returns (at least) its local top answers and the global result is
// contained in their union.
//
// The paper's headline effect — parallel speed-up beyond s — comes from
// running blocks of m·s queries (s-times the memory buffers s-times the
// answers); the benchmark harness drives that, this package provides the
// machinery and per-server cost accounting.
package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Strategy selects how items are declustered over the servers.
type Strategy int

// Declustering strategies (a future-work topic of the paper, exposed for
// the ablation benchmarks).
const (
	// RoundRobin deals items to servers in turn — balanced and
	// distribution-agnostic, the default.
	RoundRobin Strategy = iota
	// RandomAssign places each item on a uniformly random server.
	RandomAssign
	// RangePartition sorts by the first coordinate and assigns contiguous
	// chunks — spatially clustered partitions, the adversarial case for
	// load balance.
	RangePartition
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case RandomAssign:
		return "random"
	case RangePartition:
		return "range"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Decluster splits items over s servers according to the strategy. Items
// keep their global IDs.
func Decluster(items []store.Item, s int, strategy Strategy, seed int64) ([][]store.Item, error) {
	if s < 1 {
		return nil, fmt.Errorf("parallel: need at least one server, got %d", s)
	}
	parts := make([][]store.Item, s)
	switch strategy {
	case RoundRobin:
		for i, it := range items {
			parts[i%s] = append(parts[i%s], it)
		}
	case RandomAssign:
		rng := rand.New(rand.NewSource(seed))
		for _, it := range items {
			k := rng.Intn(s)
			parts[k] = append(parts[k], it)
		}
	case RangePartition:
		sorted := append([]store.Item(nil), items...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i].Vec, sorted[j].Vec
			if len(a) > 0 && len(b) > 0 && a[0] != b[0] {
				return a[0] < b[0]
			}
			return sorted[i].ID < sorted[j].ID
		})
		per := (len(sorted) + s - 1) / s
		for i, it := range sorted {
			k := i / per
			if k >= s {
				k = s - 1
			}
			parts[k] = append(parts[k], it)
		}
	default:
		return nil, fmt.Errorf("parallel: unknown strategy %v", strategy)
	}
	return parts, nil
}

// EngineKind selects the per-server physical organization. It is the
// engine registry's kind, so every registered engine works per server.
type EngineKind = engines.Kind

// Engine kinds (aliases of the registry's names; the zero value "" selects
// the scan).
const (
	// ScanEngine gives each server a sequential scan.
	ScanEngine = engines.Scan
	// XTreeEngine gives each server an X-tree.
	XTreeEngine = engines.XTree
	// VAFileEngine gives each server a vector-approximation file.
	VAFileEngine = engines.VAFile
	// PivotEngine gives each server a LAESA pivot table.
	PivotEngine = engines.Pivot
	// PMTreeEngine gives each server a PM-tree.
	PMTreeEngine = engines.PMTree
)

// Config parameterizes a cluster.
type Config struct {
	Servers      int
	Strategy     Strategy
	Seed         int64
	Engine       EngineKind
	Dim          int
	PageCapacity int
	// BufferPages per server; negative selects the 10 % default, zero
	// disables buffering.
	BufferPages int
	Metric      vec.Metric
	// Avoidance is forwarded to each server's processor.
	Avoidance msq.AvoidanceMode

	// WrapDisk, when non-nil, interposes on each server's freshly built
	// disk — the fault-injection hook. It is called once per server with
	// the server index, so faults can be confined to chosen partitions;
	// returning the source unchanged leaves that server on reliable
	// storage.
	WrapDisk func(server int, src store.PageSource) (store.PageSource, error)

	// Timeout bounds each server's work per cluster operation (per
	// attempt); zero means no timeout. A timed-out attempt counts as a
	// failure and is retried like any other.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed or
	// timed-out server call.
	Retries int
	// Backoff is the wait before the first retry, doubling on each
	// subsequent one. Zero retries immediately.
	Backoff time.Duration
	// Degrade allows partial results: when a server still fails after all
	// retries, the cluster merges the surviving servers' answers and
	// reports a degraded result (coverage < 1) instead of an error. With
	// Degrade false any server failure fails the whole operation, the
	// pre-existing strict behavior.
	Degrade bool

	// Tracer, when non-nil, is installed on every server's processor and
	// pager, and additionally receives one server_call span per server
	// attempt from the cluster fan-out. Nil disables tracing at no cost.
	// When the tracer retains distributed spans, every cluster operation
	// records a root span with one child span per server attempt (retries
	// are sibling attempt spans), viewable stitched at /debug/traces.
	Tracer *obs.Tracer
	// ServerTracers, when non-empty, must hold one tracer per server;
	// server i's processor and pager then report to ServerTracers[i]
	// instead of Tracer, so per-server phase costs stay separable. The
	// coordinator-side spans still go to Tracer. RegisterMetrics exposes
	// the per-server histograms under server="i" labels.
	ServerTracers []*obs.Tracer
}

// server is one shared-nothing node.
type server struct {
	proc *msq.Processor
	eng  engine.Engine
}

// Cluster is a set of shared-nothing servers answering similarity queries
// in parallel.
type Cluster struct {
	servers []*server
	metric  vec.Metric
	cfg     Config
}

// New declusters items and builds one engine and processor per server.
func New(items []store.Item, cfg Config) (*Cluster, error) {
	if cfg.Metric == nil {
		cfg.Metric = vec.Euclidean{}
	}
	if cfg.PageCapacity < 1 {
		return nil, fmt.Errorf("parallel: page capacity must be >= 1, got %d", cfg.PageCapacity)
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("parallel: dimension must be >= 1, got %d", cfg.Dim)
	}
	if len(cfg.ServerTracers) != 0 && len(cfg.ServerTracers) != cfg.Servers {
		return nil, fmt.Errorf("parallel: ServerTracers must hold one tracer per server (%d), got %d",
			cfg.Servers, len(cfg.ServerTracers))
	}
	parts, err := Decluster(items, cfg.Servers, cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{metric: cfg.Metric, servers: make([]*server, cfg.Servers), cfg: cfg}
	for i, part := range parts {
		var wrap func(store.PageSource) (store.PageSource, error)
		if cfg.WrapDisk != nil {
			si := i
			wrap = func(src store.PageSource) (store.PageSource, error) {
				return cfg.WrapDisk(si, src)
			}
		}
		kind := cfg.Engine
		if kind == "" {
			kind = ScanEngine
		}
		// The per-server buffer sentinel (negative = the 10 % default)
		// is resolved against the partition's own page count.
		buf := cfg.BufferPages
		if buf < 0 {
			buf = store.DefaultBufferPages((len(part) + cfg.PageCapacity - 1) / cfg.PageCapacity)
		}
		eng, err := engines.Build(engines.Spec{
			Kind:         kind,
			Items:        part,
			Dim:          cfg.Dim,
			Metric:       cfg.Metric,
			PageCapacity: cfg.PageCapacity,
			BufferPages:  buf,
			WrapDisk:     wrap,
		})
		if err != nil {
			return nil, fmt.Errorf("parallel: server %d: %w", i, err)
		}
		// Each server gets its own counting metric so per-server CPU
		// cost can be reported.
		proc, err := msq.New(eng, vec.NewCounting(cfg.Metric), msq.Options{Avoidance: cfg.Avoidance})
		if err != nil {
			return nil, fmt.Errorf("parallel: server %d: %w", i, err)
		}
		switch {
		case len(cfg.ServerTracers) > 0:
			if cfg.ServerTracers[i] != nil {
				proc = proc.WithTracer(cfg.ServerTracers[i])
			}
		case cfg.Tracer != nil:
			proc = proc.WithTracer(cfg.Tracer)
		}
		c.servers[i] = &server{proc: proc, eng: eng}
	}
	return c, nil
}

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return len(c.servers) }

// ServerHealth describes one server's fate during a cluster operation.
type ServerHealth struct {
	// OK is true when the server contributed answers.
	OK bool
	// Attempts counts calls made to the server (1 for a first-try
	// success).
	Attempts int
	// Err holds the final failure, empty on success.
	Err string
	// Latency is the wall time of the server's final attempt — the
	// successful one, or the last failed one. Retried attempts' backoff
	// waits are not included.
	Latency time.Duration
}

// ServerStats is the per-server cost and health of one cluster operation.
type ServerStats struct {
	Query  msq.Stats
	IO     store.IOStats
	Health ServerHealth
}

// Report carries per-server costs and the degradation state of one
// parallel operation.
type Report struct {
	PerServer []ServerStats
	// Degraded is true when at least one server failed and the merged
	// result covers only the surviving partitions.
	Degraded bool
	// Servers and Covered count partitions total and partitions answered;
	// Covered/Servers is the coverage fraction of the merged result.
	Servers int
	Covered int
}

// Coverage returns the fraction of partitions that contributed answers
// (1 when the report predates any operation).
func (r Report) Coverage() float64 {
	if r.Servers == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Servers)
}

// Note states the correctness contract of the report's result. Degraded
// results exploit the union-merge property: every answer returned was
// truly within the query's constraint on some surviving partition, so
// answer lists are a sound subset of the fault-free result; k-NN answers
// become "up to k nearest among the covered partitions" (bounded-k-NN
// semantics).
func (r Report) Note() string {
	if !r.Degraded {
		return "complete: all partitions answered"
	}
	return fmt.Sprintf("degraded: %d/%d partitions answered; answers are a sound subset "+
		"of the fault-free result, k-NN lists are bounded-k-NN over the covered partitions",
		r.Covered, r.Servers)
}

// Sum returns the total work across servers (throughput view). The summed
// query stats carry the report's degradation state and coverage counters.
func (r Report) Sum() ServerStats {
	var out ServerStats
	for _, s := range r.PerServer {
		out.Query = out.Query.Add(s.Query)
		out.IO = out.IO.Add(s.IO)
	}
	out.Query.Degraded = r.Degraded
	out.Query.PartitionsTotal = int64(r.Servers)
	out.Query.PartitionsAnswered = int64(r.Covered)
	return out
}

// MaxPagesRead returns the page count of the busiest server — the
// latency-determining quantity in a shared-nothing setting.
func (r Report) MaxPagesRead() int64 {
	var m int64
	for _, s := range r.PerServer {
		if s.Query.PagesRead > m {
			m = s.Query.PagesRead
		}
	}
	return m
}

// MaxDistCalcs returns the distance-calculation count (including matrix) of
// the busiest server.
func (r Report) MaxDistCalcs() int64 {
	var m int64
	for _, s := range r.PerServer {
		if c := s.Query.TotalDistCalcs(); c > m {
			m = c
		}
	}
	return m
}

// MultiQueryAll evaluates the batch to completion on every server in
// parallel and merges the per-server answers into global answers, aligned
// with queries.
//
// Each server call is bounded by Config.Timeout and retried up to
// Config.Retries times with exponential backoff. When a server still fails
// and Config.Degrade is set, the surviving servers' answers are merged
// into a degraded result (Report.Degraded, coverage < 1): by the
// union-merge property every returned answer genuinely satisfies its query
// on a covered partition, so the lists are a sound subset of the
// fault-free result. Without Degrade any persistent server failure fails
// the whole operation.
func (c *Cluster) MultiQueryAll(queries []msq.Query) ([]*query.AnswerList, Report, error) {
	return c.MultiQueryAllContext(context.Background(), queries)
}

// MultiQueryAllContext is MultiQueryAll with cancellation: ctx bounds the
// whole cluster operation. Cancellation aborts every server's page loop,
// interrupts retry backoff waits, and suppresses further retries; the
// operation then fails (or degrades, under Config.Degrade with surviving
// servers) with the context error recorded per server.
func (c *Cluster) MultiQueryAllContext(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, Report, error) {
	report := Report{PerServer: make([]ServerStats, len(c.servers)), Servers: len(c.servers)}
	perServer := make([][]*query.AnswerList, len(c.servers))
	errs := make([]error, len(c.servers))

	// The batch's root distributed span: every server attempt records a
	// child span under it, so retries show up as sibling attempt spans of
	// one trace. Nil tracers (or disabled span retention) make root nil
	// and every span call below a no-op.
	root := c.cfg.Tracer.StartSpan("multi_all")
	defer root.End()

	var wg sync.WaitGroup
	for i, srv := range c.servers {
		wg.Add(1)
		go func(i int, srv *server) {
			defer wg.Done()
			attempts := 0
			backoff := c.cfg.Backoff
			var lastErr error
			var lastLatency time.Duration
			for try := 0; try <= c.cfg.Retries; try++ {
				if try > 0 {
					if backoff > 0 {
						select {
						case <-time.After(backoff):
						case <-ctx.Done():
						}
						backoff *= 2
					}
					if err := ctx.Err(); err != nil {
						lastErr = err
						break
					}
				}
				attempts++
				span := root.StartChild("server_call")
				span.SetServer(fmt.Sprintf("srv%d", i))
				span.SetAttempt(attempts)
				start := time.Now()
				res, st, err := c.callServer(ctx, srv, queries)
				lastLatency = time.Since(start)
				c.cfg.Tracer.Observe(obs.PhaseServerCall, lastLatency)
				if err != nil {
					span.SetErr(err.Error())
				}
				span.End()
				if err == nil {
					perServer[i] = res
					st.Health = ServerHealth{OK: true, Attempts: attempts, Latency: lastLatency}
					report.PerServer[i] = st
					return
				}
				lastErr = err
				if ctx.Err() != nil {
					break // canceled: further retries cannot succeed
				}
			}
			report.PerServer[i].Health = ServerHealth{Attempts: attempts, Err: lastErr.Error(), Latency: lastLatency}
			errs[i] = lastErr
		}(i, srv)
	}
	wg.Wait()

	var firstErr error
	firstIdx := -1
	for i, err := range errs {
		if err == nil {
			report.Covered++
		} else if firstErr == nil {
			firstErr, firstIdx = err, i
		}
	}
	if firstErr != nil {
		if !c.cfg.Degrade || report.Covered == 0 {
			return nil, report, fmt.Errorf("parallel: server %d: %w", firstIdx, firstErr)
		}
		report.Degraded = true
	}

	merged := make([]*query.AnswerList, len(queries))
	for qi := range queries {
		l := query.NewAnswerList(queries[qi].Type)
		for si := range c.servers {
			if errs[si] != nil {
				continue
			}
			for _, a := range perServer[si][qi].Answers() {
				l.Consider(a.ID, a.Dist)
			}
		}
		merged[qi] = l
	}
	return merged, report, nil
}

// callServer runs one batch on one server, optionally bounded by the
// configured timeout. The query processor checks its context once per page,
// but a single page read may stall indefinitely (a hung simulated disk), so
// the timeout still races a timer against the attempt: on expiry the attempt
// is abandoned — its goroutine aborts at its next page check via the
// canceled attempt context, any I/O it issued still shows up in the server's
// cumulative disk statistics, and its result is discarded.
func (c *Cluster) callServer(ctx context.Context, srv *server, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	type outcome struct {
		res []*query.AnswerList
		st  ServerStats
		err error
	}
	run := func(ctx context.Context) outcome {
		ioBefore := srv.eng.Pager().Disk().Stats()
		res, st, err := srv.proc.MultiQueryContext(ctx, queries)
		io := diffIO(srv.eng.Pager().Disk().Stats(), ioBefore)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{res: res, st: ServerStats{Query: st, IO: io}}
	}
	if c.cfg.Timeout <= 0 {
		o := run(ctx)
		return o.res, o.st, o.err
	}
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 1)
	go func() { ch <- run(attemptCtx) }()
	timer := time.NewTimer(c.cfg.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.st, o.err
	case <-timer.C:
		cancel() // let the abandoned attempt stop at its next page check
		return nil, ServerStats{}, fmt.Errorf("parallel: server timed out after %v", c.cfg.Timeout)
	}
}

// Single evaluates one similarity query on all servers and merges the
// results.
func (c *Cluster) Single(q vec.Vector, t query.Type) (*query.AnswerList, Report, error) {
	return c.SingleContext(context.Background(), q, t)
}

// SingleContext is Single with cancellation (see MultiQueryAllContext).
func (c *Cluster) SingleContext(ctx context.Context, q vec.Vector, t query.Type) (*query.AnswerList, Report, error) {
	res, rep, err := c.MultiQueryAllContext(ctx, []msq.Query{{ID: 0, Vec: q, Type: t}})
	if err != nil {
		return nil, rep, err
	}
	return res[0], rep, nil
}

// RegisterMetrics registers the cluster's per-server live counters on reg
// under server="i" labels — disk reads, buffer-pool hits/misses/evictions,
// and distance-calculation totals — and, when Config.ServerTracers is set,
// attaches each server's tracer so its phase histograms (with p50/p95/p99
// summaries) appear in the same exposition. One scrape of the coordinator's
// registry then covers the whole cluster.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	for i, srv := range c.servers {
		labels := fmt.Sprintf("server=%q", fmt.Sprint(i))
		pager := srv.eng.Pager()
		metric := srv.proc.Metric()
		reg.Counter("metricdb_server_disk_reads_total", labels,
			"Simulated-disk page reads on one server.",
			func() float64 { return float64(pager.Disk().Stats().Reads) })
		reg.Counter("metricdb_server_dist_calcs_total", labels,
			"Object distance calculations on one server.",
			func() float64 { return float64(metric.Count()) })
		reg.Counter("metricdb_server_dist_abandoned_total", labels,
			"Early-abandoned distance calculations on one server.",
			func() float64 { return float64(metric.Abandoned()) })
		if buf := pager.Buffer(); buf != nil {
			reg.Counter("metricdb_server_buffer_hits_total", labels,
				"Buffer-pool hits on one server.",
				func() float64 { h, _, _ := buf.HitRate(); return float64(h) })
			reg.Counter("metricdb_server_buffer_misses_total", labels,
				"Buffer-pool misses on one server.",
				func() float64 { _, m, _ := buf.HitRate(); return float64(m) })
			reg.Counter("metricdb_server_buffer_evictions_total", labels,
				"Buffer-pool LRU evictions on one server.",
				func() float64 { return float64(buf.Evictions()) })
		}
		if i < len(c.cfg.ServerTracers) && c.cfg.ServerTracers[i] != nil {
			reg.AttachTracer(labels, c.cfg.ServerTracers[i])
		}
	}
}

func diffIO(after, before store.IOStats) store.IOStats {
	return store.IOStats{
		Reads:     after.Reads - before.Reads,
		SeqReads:  after.SeqReads - before.SeqReads,
		RandReads: after.RandReads - before.RandReads,
	}
}
