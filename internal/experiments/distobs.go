package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"metricdb/internal/fault"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// The distobs experiment exercises the distributed observability layer
// end to end: a coordinator fans one m-query batch out to s wire servers
// on loopback TCP, each with its own node-labelled tracer. One server
// sits on a transient disk fault, so the first attempt fails and the
// coordinator's retry appears as a sibling attempt span. The experiment
// asserts the tentpole contracts — a single stitched cross-server trace
// with one child span per server call (retries included), and
// traced-vs-untraced bit-identity of answers and counters — and records a
// per-query EXPLAIN profile that must reconcile with its batch counters.
// The results are the BENCH_distobs.json artifact.

// DistObsRun is one traced-vs-untraced comparison over the wire cluster.
type DistObsRun struct {
	// Width is always 1 — each server evaluates a batch in one sequential
	// page loop — and keys the row against earlier baselines.
	Width   int     `json:"width"`
	Seconds float64 `json:"seconds"`
	// Identical reports whether the traced run's merged answers and
	// aggregated counters matched the untraced run exactly (the
	// strictly-observational contract across the wire).
	Identical bool `json:"identical"`
	// Traces is the number of distinct trace IDs on the coordinator
	// tracer after the run; the tentpole contract is exactly 1.
	Traces int `json:"traces"`
	// ServerCalls counts server_call child spans under the root —
	// servers + retried attempts.
	ServerCalls int `json:"server_calls"`
	// Retries counts attempt > 1 among those (the fault-induced retry).
	Retries int `json:"retries"`
	// RemoteNodes is the number of distinct non-coordinator node labels
	// among the stitched spans — servers whose subtrees were imported.
	RemoteNodes int `json:"remote_nodes"`
	// Spans is the total span count of the stitched trace.
	Spans int `json:"spans"`
	// PagesRead/DistCalcs summarize the traced run's aggregated work.
	PagesRead int64 `json:"pages_read"`
	DistCalcs int64 `json:"dist_calcs"`
}

// DistObsExplain is the per-query EXPLAIN profile summary.
type DistObsExplain struct {
	// Width is always 1, as in DistObsRun.
	Width int `json:"width"`
	// PagesVisited, Offered (DistCalcs + avoided by either lemma) and
	// Answers per query position.
	PagesVisited []int64 `json:"pages_visited"`
	Offered      []int64 `json:"offered"`
	Answers      []int   `json:"answers"`
	// Stable reports whether the columns reconcile with the call's batch
	// counters: pages visited sum to PageVisits and the offered sets to
	// DistCalcs + Avoided.
	Stable bool `json:"stable"`
}

// DistObsProfile is the distobs experiment's result set.
type DistObsProfile struct {
	Workload string           `json:"workload"`
	M        int              `json:"m"`
	Servers  int              `json:"servers"`
	Runs     []DistObsRun     `json:"runs"`
	Explain  []DistObsExplain `json:"explain"`
}

// distObsCluster is one wire cluster: s servers on loopback listeners and
// a coordinator over them. Server 0 sits on a transient fault (one
// injected read failure, then the disk behaves), so the first call to it
// fails and the coordinator's retry succeeds.
type distObsCluster struct {
	coord     *wire.Coordinator
	coordTr   *obs.Tracer
	servers   []*wire.Server
	listeners []net.Listener
}

func (c *distObsCluster) close() {
	for _, s := range c.servers {
		s.Close() //nolint:errcheck
	}
}

// newDistObsCluster partitions the workload round-robin over s wire
// servers. With traced true every process
// gets a node-labelled tracer and the coordinator propagates trace
// contexts; with traced false no tracer exists anywhere (the reference
// configuration).
func newDistObsCluster(w Workload, s int, traced bool) (*distObsCluster, error) {
	parts, err := parallel.Decluster(w.Items, s, parallel.RoundRobin, 0)
	if err != nil {
		return nil, err
	}
	capacity := store.PageCapacityForBlockSize(32768, w.Dim)
	c := &distObsCluster{}
	var serverTrs []*obs.Tracer
	addrs := make([]string, s)
	for i, part := range parts {
		var wrap func(store.PageSource) (store.PageSource, error)
		if i == 0 {
			wrap = func(src store.PageSource) (store.PageSource, error) {
				return fault.Wrap(src, fault.Config{Seed: 1, ErrProb: 1, MaxFaults: 1})
			}
		}
		pages := (len(part) + capacity - 1) / capacity
		eng, err := scan.NewWithConfig(part, scan.Config{
			PageCapacity: capacity,
			BufferPages:  store.DefaultBufferPages(pages),
			WrapDisk:     wrap,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := wire.ServerConfig{WriteTimeout: 10 * time.Second}
		if traced {
			tr := obs.New(obs.Config{SlowQueryThreshold: -1, Node: fmt.Sprintf("srv%d", i)})
			proc = proc.WithTracer(tr)
			cfg.Tracer = tr
			serverTrs = append(serverTrs, obs.New(obs.Config{SlowQueryThreshold: -1}))
		}
		srv, err := wire.NewServerWithConfig(proc, cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		go srv.Serve(lis) //nolint:errcheck
		c.servers = append(c.servers, srv)
		c.listeners = append(c.listeners, lis)
		addrs[i] = lis.Addr().String()
	}
	ccfg := wire.CoordinatorConfig{
		Addrs:   addrs,
		Retries: 2,
		Timeout: 30 * time.Second,
	}
	if traced {
		c.coordTr = obs.New(obs.Config{SlowQueryThreshold: -1, Node: "coordinator"})
		ccfg.Tracer = c.coordTr
		ccfg.ServerTracers = serverTrs
	}
	coord, err := wire.NewCoordinator(ccfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	return c, nil
}

// toSpecs converts a query batch to wire form. KNN ranges are +Inf, which
// JSON cannot carry, so each spec only states the fields its kind uses.
func toSpecs(queries []msq.Query) []wire.QuerySpec {
	specs := make([]wire.QuerySpec, len(queries))
	for i, q := range queries {
		spec := wire.QuerySpec{ID: q.ID, Vector: []float64(q.Vec), Kind: q.Type.Kind.String()}
		switch q.Type.Kind {
		case query.Range:
			spec.Range = q.Type.Range
		case query.KNN:
			spec.K = q.Type.Cardinality
		case query.BoundedKNN:
			spec.Range = q.Type.Range
			spec.K = q.Type.Cardinality
		}
		specs[i] = spec
	}
	return specs
}

func sameWireAnswers(a, b [][]wire.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].ID != b[i][j].ID || a[i][j].Dist != b[i][j].Dist {
				return false
			}
		}
	}
	return true
}

// RunDistObs runs the m-query batch over s wire servers, comparing the
// traced run against an untraced run of an identically built (and
// identically faulted) cluster, then profiles the batch with EXPLAIN on a
// single-node processor.
func RunDistObs(w Workload, s, m int) (*DistObsProfile, error) {
	queries, err := w.Queries(w.querySeed()+29, m)
	if err != nil {
		return nil, err
	}
	specs := toSpecs(queries)
	profile := &DistObsProfile{Workload: w.Name, M: m, Servers: s}

	run := func(traced bool) ([][]wire.Answer, wire.Stats, *obs.Tracer, float64, error) {
		c, err := newDistObsCluster(w, s, traced)
		if err != nil {
			return nil, wire.Stats{}, nil, 0, err
		}
		defer c.close()
		start := time.Now()
		answers, stats, err := c.coord.MultiAllContext(context.Background(), specs)
		return answers, stats, c.coordTr, time.Since(start).Seconds(), err
	}

	refAnswers, refStats, _, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiments: distobs untraced: %w", err)
	}
	answers, stats, tr, elapsed, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: distobs traced: %w", err)
	}

	res := DistObsRun{
		Width:   1,
		Seconds: elapsed,
		Identical: sameWireAnswers(refAnswers, answers) &&
			stats.PagesRead == refStats.PagesRead &&
			stats.DistCalcs == refStats.DistCalcs &&
			stats.Avoided == refStats.Avoided &&
			stats.AvoidTries == refStats.AvoidTries,
		PagesRead: stats.PagesRead,
		DistCalcs: stats.DistCalcs,
	}
	ids := tr.TraceIDs()
	res.Traces = len(ids)
	if len(ids) > 0 {
		root := tr.Trace(ids[0])
		nodes := map[string]bool{}
		var walk func(n *obs.TraceNode)
		walk = func(n *obs.TraceNode) {
			res.Spans++
			if n.Name == "server_call" {
				res.ServerCalls++
				if n.Attempt > 1 {
					res.Retries++
				}
			}
			if n.Node != "" && n.Node != "coordinator" {
				nodes[n.Node] = true
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(root)
		res.RemoteNodes = len(nodes)
	}
	profile.Runs = append(profile.Runs, res)

	// EXPLAIN on one node over the full workload: the per-query columns
	// must add up to the batch counters of the same call.
	eng, err := ScanMaker(w).Make()
	if err != nil {
		return nil, err
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		return nil, err
	}
	ex, err := proc.ExplainContext(context.Background(), queries)
	if err != nil {
		return nil, fmt.Errorf("experiments: distobs explain: %w", err)
	}
	de := DistObsExplain{Width: 1}
	var visited, offered int64
	for _, p := range ex.Queries {
		de.PagesVisited = append(de.PagesVisited, p.PagesVisited)
		de.Offered = append(de.Offered, p.Offered())
		de.Answers = append(de.Answers, p.Answers)
		visited += p.PagesVisited
		offered += p.Offered()
	}
	de.Stable = visited == ex.Stats.PageVisits && offered == ex.Stats.DistCalcs+ex.Stats.Avoided
	profile.Explain = append(profile.Explain, de)
	return profile, nil
}

// Figure renders the traced wall clock and the trace shape: how many
// server calls (including retries) the stitched trace recorded.
func (p *DistObsProfile) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Distributed tracing over %d wire servers (%s database, m=%d)", p.Servers, p.Workload, p.M),
		XLabel: "run",
		YLabel: "count / seconds",
	}
	var secs, calls, retries []float64
	for i, r := range p.Runs {
		fig.XVals = append(fig.XVals, float64(i))
		secs = append(secs, r.Seconds)
		calls = append(calls, float64(r.ServerCalls))
		retries = append(retries, float64(r.Retries))
	}
	fig.AddSeries("seconds", secs)       //nolint:errcheck // lengths match by construction
	fig.AddSeries("server calls", calls) //nolint:errcheck
	fig.AddSeries("retries", retries)    //nolint:errcheck
	return fig
}

// WriteDistObsJSON writes the profiles as an indented JSON document (the
// BENCH_distobs.json artifact).
func WriteDistObsJSON(w io.Writer, profiles []*DistObsProfile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profiles)
}

// WriteDistObsJSONFile writes the artifact to path.
func WriteDistObsJSONFile(path string, profiles []*DistObsProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDistObsJSON(f, profiles); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
