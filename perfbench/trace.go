package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"metricdb"
	"metricdb/internal/engine"
	"metricdb/internal/engines"
	"metricdb/internal/explore"
	"metricdb/internal/msq"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// tracedStack is the public stack rebuilt from the layers' exported
// constructors with the wrappers of layers.go interposed.
type tracedStack struct {
	rec   *layerRec
	proc  *msq.Processor
	pager *store.Pager
	// fd is the file-backed disk of a stored stack, nil otherwise.
	fd  *store.FileDisk
	srv *server
}

// buildTraced rebuilds pub's stack. Page capacity follows the library's
// default rule and the buffer size is read off pub, so both stacks hold
// the same pages in the same buffer.
func buildTraced(cfg config, in *inputs, pub *publicStack) (*tracedStack, error) {
	ts := &tracedStack{rec: &layerRec{}}
	bufferPages := 0
	if b := pub.db.Processor().Engine().Pager().Buffer(); b != nil {
		bufferPages = b.Capacity()
	}
	var eng engine.Engine
	var err error
	if cfg.kind == kindStored {
		eng, err = ts.buildStored(in.dir, bufferPages)
	} else {
		eng, err = engines.Build(engines.Spec{
			Kind:         engines.Kind(engineOf(cfg)),
			Items:        in.items,
			Dim:          cfg.dim,
			Metric:       vec.Euclidean{},
			PageCapacity: store.PageCapacityForBlockSize(32768, cfg.dim),
			BufferPages:  bufferPages,
			WrapDisk: func(src store.PageSource) (store.PageSource, error) {
				return &tracedSource{PageSource: src, rec: ts.rec}, nil
			},
		})
	}
	if err != nil {
		ts.close() //nolint:errcheck // reporting the build failure instead
		return nil, fmt.Errorf("building traced engine: %w", err)
	}
	if got, want := eng.NumPages(), pub.db.NumPages(); got != want {
		ts.close() //nolint:errcheck // reporting the mismatch instead
		return nil, fmt.Errorf("traced engine has %d pages, the public one %d", got, want)
	}
	ts.pager = eng.Pager()
	if ts.proc, err = msq.New(wrapEngine(eng, ts.rec), vec.Euclidean{}, msq.Options{}); err != nil {
		ts.close() //nolint:errcheck // reporting the build failure instead
		return nil, err
	}
	if cfg.kind == kindBatch {
		wrap := func(l net.Listener) net.Listener { return &tracedListener{Listener: l, rec: ts.rec} }
		if ts.srv, err = startServer(ts.proc, serverConfig(), wrap); err != nil {
			ts.close() //nolint:errcheck // reporting the server failure instead
			return nil, err
		}
	}
	return ts, nil
}

// buildStored mirrors OpenStored's scan path: the dataset's own pages
// served by a FileDisk through an LRU buffer.
func (ts *tracedStack) buildStored(dir string, bufferPages int) (engine.Engine, error) {
	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		return nil, err
	}
	ts.fd = fd
	var buf *store.Buffer
	if bufferPages > 0 {
		if buf, err = store.NewBuffer(bufferPages); err != nil {
			return nil, err
		}
	}
	pager, err := store.NewPager(&tracedSource{PageSource: fd, rec: ts.rec}, buf)
	if err != nil {
		return nil, err
	}
	man := fd.Manifest()
	lens := make([]int, len(man.Pages))
	for i, e := range man.Pages {
		lens[i] = e.Items
	}
	return scan.NewStored(pager, man.Items, lens)
}

func (ts *tracedStack) close() error {
	var err error
	if ts.srv != nil {
		err = ts.srv.close()
	}
	if ts.fd != nil {
		err = errors.Join(err, ts.fd.Close())
	}
	return err
}

// counters are the deterministic counters the two replays must agree on.
type counters struct {
	DistCalcs, AvoidTries, Avoided, PagesRead, Preads, BytesRead int64
}

// replay is what one replay of the fixed operation list produced.
type replay struct {
	// answers are the k-NN answers in operation order; labels the DBSCAN
	// labels per job.
	answers [][]metricdb.Answer
	labels  [][]int
	c       counters
	// stats sums the processor's statistics where the entry point
	// returns them in full (in-process workloads); wire responses carry
	// a subset, summed into wireStats.
	stats     msq.Stats
	wireStats wire.Stats
	steps     int
	// ops are the per-operation wall times: client round trips on the
	// wire workloads, call times in process.
	ops  []time.Duration
	wall time.Duration
	// reqs and resps are the wire requests sent and responses received.
	reqs  []wire.Request
	resps []wire.Response
}

// replayWire sends the replay's multi_all batches to addr, each on a
// fresh connection as in the timed loop.
func replayWire(cfg config, in *inputs, addr string) (*replay, error) {
	r := &replay{}
	start := time.Now()
	for i := 0; i < cfg.replay; i++ {
		req := wire.Request{Op: wire.OpMultiAll, Queries: knnSpecs(in.pool[i%len(in.pool)], uint64(i*cfg.m), cfg.k)}
		t0 := time.Now()
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		resp, err := c.DoContext(context.Background(), req)
		c.Close() //nolint:errcheck // a fresh connection per batch
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		r.reqs = append(r.reqs, req)
		r.ops = append(r.ops, time.Since(t0))
		r.resps = append(r.resps, resp)
		for _, as := range resp.Answers {
			r.answers = append(r.answers, fromWire(as))
		}
		s := resp.Stats
		r.c.DistCalcs += s.DistCalcs
		r.c.AvoidTries += s.AvoidTries
		r.c.Avoided += s.Avoided
		r.c.PagesRead += s.PagesRead
		r.wireStats = addWire(r.wireStats, s)
	}
	r.wall = time.Since(start)
	return r, nil
}

func addWire(a, b wire.Stats) wire.Stats {
	a.Queries += b.Queries
	a.PagesRead += b.PagesRead
	a.DistCalcs += b.DistCalcs
	a.MatrixDistCalcs += b.MatrixDistCalcs
	a.AvoidTries += b.AvoidTries
	a.Avoided += b.Avoided
	a.PartialAbandoned += b.PartialAbandoned
	a.PivotDistCalcs += b.PivotDistCalcs
	return a
}

// replayInProcess runs the replay through run, which executes operation i
// and returns its answers or labels and statistics.
func replayInProcess(cfg config, in *inputs, run func(i int) ([][]metricdb.Answer, []int, msq.Stats, int, error)) (*replay, error) {
	r := &replay{}
	start := time.Now()
	for i := 0; i < cfg.replay; i++ {
		t0 := time.Now()
		answers, labels, st, steps, err := run(i)
		if err != nil {
			return nil, fmt.Errorf("replay operation %d: %w", i, err)
		}
		r.ops = append(r.ops, time.Since(t0))
		r.answers = append(r.answers, answers...)
		if labels != nil {
			r.labels = append(r.labels, labels)
		}
		r.stats = r.stats.Add(st)
		r.steps += steps
	}
	r.wall = time.Since(start)
	r.c.DistCalcs = r.stats.DistCalcs
	r.c.AvoidTries = r.stats.AvoidTries
	r.c.Avoided = r.stats.Avoided
	r.c.PagesRead = r.stats.PagesRead
	return r, nil
}

// replayPublic replays through the public entry points.
func replayPublic(cfg config, in *inputs, pub *publicStack) (*replay, error) {
	switch cfg.kind {
	case kindBatch:
		return replayWire(cfg, in, pub.srv.addr)
	case kindDBSCAN:
		return replayInProcess(cfg, in, func(int) ([][]metricdb.Answer, []int, msq.Stats, int, error) {
			res, err := pub.db.DBSCAN(cfg.eps, cfg.minPts, cfg.m)
			if err != nil {
				return nil, nil, msq.Stats{}, 0, err
			}
			return nil, res.Labels, res.Stats.Query, res.Stats.Steps, nil
		})
	}
	before, _ := pub.db.StorageStats()
	r, err := replayInProcess(cfg, in, func(i int) ([][]metricdb.Answer, []int, msq.Stats, int, error) {
		answers, st, err := pub.db.NewBatch().QueryAll(knnQueries(in.pool[i%len(in.pool)], cfg.k))
		return answers, nil, st, 0, err
	})
	if err != nil {
		return nil, err
	}
	after, _ := pub.db.StorageStats()
	r.c.Preads, r.c.BytesRead = after.Preads-before.Preads, after.BytesRead-before.BytesRead
	return r, nil
}

// replayTraced replays through the traced stack's layer entry points.
func replayTraced(cfg config, in *inputs, ts *tracedStack) (*replay, error) {
	switch cfg.kind {
	case kindBatch:
		return replayWire(cfg, in, ts.srv.addr)
	case kindDBSCAN:
		return replayInProcess(cfg, in, func(int) ([][]metricdb.Answer, []int, msq.Stats, int, error) {
			res, err := explore.DBSCAN(explore.Config{Proc: ts.proc, Items: in.items, BatchSize: cfg.m}, cfg.eps, cfg.minPts)
			if err != nil {
				return nil, nil, msq.Stats{}, 0, err
			}
			return nil, res.Labels, res.Stats.Query, res.Stats.Steps, nil
		})
	}
	before := ts.fd.Storage()
	r, err := replayInProcess(cfg, in, func(i int) ([][]metricdb.Answer, []int, msq.Stats, int, error) {
		lists, st, err := ts.proc.NewSession().MultiQueryAll(knnQueries(in.pool[i%len(in.pool)], cfg.k))
		if err != nil {
			return nil, nil, st, 0, err
		}
		answers := make([][]metricdb.Answer, len(lists))
		for j, l := range lists {
			answers[j] = l.Answers()
		}
		return answers, nil, st, 0, nil
	})
	if err != nil {
		return nil, err
	}
	after := ts.fd.Storage()
	r.c.Preads, r.c.BytesRead = after.Preads-before.Preads, after.BytesRead-before.BytesRead
	return r, nil
}

// sameReplay reports where two replays differ, or "" when answers,
// labels and counters are identical.
func sameReplay(a, b *replay) string {
	if a.c != b.c {
		return fmt.Sprintf("counters differ: untraced %+v, traced %+v", a.c, b.c)
	}
	if len(a.answers) != len(b.answers) || len(a.labels) != len(b.labels) {
		return "answer counts differ"
	}
	for i := range a.answers {
		if !slices.Equal(a.answers[i], b.answers[i]) {
			return fmt.Sprintf("answers of query %d differ", i)
		}
	}
	for i := range a.labels {
		if !slices.Equal(a.labels[i], b.labels[i]) {
			return fmt.Sprintf("labels of job %d differ", i)
		}
	}
	return ""
}

// checkReplay counts the replay's wrong answers against the reference.
func checkReplay(cfg config, in *inputs, r *replay) (attempted, failed int64) {
	if cfg.kind == kindDBSCAN {
		for _, l := range r.labels {
			attempted++
			if !checkPartition(in.dbscan, l) {
				failed++
			}
		}
		return attempted, failed
	}
	for i, got := range r.answers {
		b, q := in.single(i)
		attempted++
		if !checkKNN(in.items, in.pool[b][q], got, in.refs[b][q]) {
			failed++
		}
	}
	return attempted, failed
}

// traceRun is the traced run: the replay through a fresh public stack,
// the same replay through a fresh traced stack, the identity check, and
// the per-layer metrics of the traced replay. knn-batch adds traced open
// loops of single queries for the admission and serving metrics.
func traceRun(cfg config, in *inputs, dur time.Duration) (result, error) {
	pub, err := openPublic(cfg, in)
	if err != nil {
		return result{}, err
	}
	defer pub.close() //nolint:errcheck // the result is already decided
	in.computeRefs(cfg)
	ts, err := buildTraced(cfg, in, pub)
	if err != nil {
		return result{}, err
	}
	defer ts.close() //nolint:errcheck // the result is already decided

	runtime.GC()
	untraced, err := replayPublic(cfg, in, pub)
	if err != nil {
		return result{}, fmt.Errorf("untraced replay: %w", err)
	}
	before := ts.rec.snap()
	evict0 := evictions(ts.pager)
	io0 := ts.pager.Disk().Stats()
	runtime.GC()
	traced, err := replayTraced(cfg, in, ts)
	if err != nil {
		return result{}, fmt.Errorf("traced replay: %w", err)
	}
	d := ts.rec.snap().sub(before)
	io := ts.pager.Disk().Stats()
	v := map[string]float64{}
	res := result{Correct: true}
	if diff := sameReplay(untraced, traced); diff != "" {
		logf("%s: traced replay differs from the untraced one: %s", cfg.name, diff)
		res.Correct = false
	}
	for _, r := range []*replay{untraced, traced} {
		a, f := checkReplay(cfg, in, r)
		res.Attempted += a
		res.Failed += f
	}

	queries := float64(traced.wireStats.Queries + traced.stats.Queries)
	units := float64(len(traced.ops))
	st := traced.stats
	execPerUnit := traced.wall.Seconds() * 1e3 / units
	if cfg.kind == kindBatch {
		st = fromWireStats(traced.wireStats)
		execPerUnit = layerWire(ts, traced, d, before, queries, v)
	}
	engineMs := float64(d.prepareNs+d.readNs) / 1e6 / units
	v["msq.exec_ms"] = execPerUnit
	v["msq.self_ms"] = execPerUnit - engineMs
	v["msq.dist_calcs_per_query"] = float64(st.DistCalcs) / queries
	v["msq.avoid_tries_per_query"] = float64(st.AvoidTries) / queries
	v["msq.avoided_frac"] = ratio(st.Avoided, st.DistCalcs+st.Avoided)
	v["msq.avoid_hit_ratio"] = ratio(st.Avoided, st.AvoidTries)
	v["msq.abandon_frac"] = ratio(st.PartialAbandoned, st.DistCalcs)
	v["msq.matrix_dist_calcs"] = float64(st.MatrixDistCalcs) / units
	v["engine.prepare_us_per_query"] = float64(d.prepareNs) / 1e3 / float64(max(d.prepares, 1))
	v["engine.read_calls_per_query"] = float64(d.readCalls) / queries
	v["engine.pivot_dist_calcs_per_query"] = float64(st.PivotDistCalcs) / queries
	v["store.pages_read_per_query"] = float64(d.srcReads) / queries
	v["store.buffer_hit_ratio"] = 1 - ratio(d.srcReads, d.readCalls)
	v["store.evictions_per_query"] = float64(evictions(ts.pager)-evict0) / queries
	v["store.read_us_per_page"] = float64(d.srcNs) / 1e3 / float64(max(d.srcReads, 1))
	v["store.seq_read_frac"] = ratio(io.SeqReads-io0.SeqReads, io.Reads-io0.Reads)
	if ts.fd != nil {
		v["store.preads_per_query"] = float64(traced.c.Preads) / queries
		v["store.bytes_read_per_query"] = float64(traced.c.BytesRead) / queries
		v["store.checksum_failures"] = float64(ts.fd.Storage().ChecksumFailures)
	}
	if cfg.kind == kindDBSCAN {
		steps := float64(traced.steps)
		v["explore.steps_per_job"] = steps / units
		v["explore.pages_read_per_step"] = float64(st.PagesRead) / steps
		v["explore.dist_calcs_per_step"] = float64(st.TotalDistCalcs()) / steps
	}
	if cfg.kind == kindBatch {
		gain, visits, err := batchGain(cfg, in, ts)
		if err != nil {
			return result{}, err
		}
		v["msq.batch_gain"] = gain
		st.PageVisits = visits.PageVisits
		st.PagesRead = visits.PagesRead
	}
	v["msq.page_visits_per_read"] = ratio(st.PageVisits, st.PagesRead)
	v["vec.dist_ns"] = distNs(in.items, queryDist(cfg, in))
	v["vec.kernel_share"] = float64(st.TotalDistCalcs()) / units * v["vec.dist_ns"] / 1e6 / execPerUnit

	if res.Failed > 0 {
		res.Correct = false
	}
	overhead, err := overheadFrac(cfg, in, pub, ts, untraced.wall, traced.wall)
	if err != nil {
		return result{}, err
	}
	v["trace.overhead_frac"] = overhead
	if cfg.kind == kindBatch {
		out, err := admitLayer(cfg, in, ts, dur, v)
		if err != nil {
			return result{}, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		if out.wrong > 0 {
			res.Correct = false
		}
	}
	logf("%s traced: replay untraced %.3f s, traced %.3f s, counters %+v", cfg.name, untraced.wall.Seconds(), traced.wall.Seconds(), traced.c)
	res.Metrics = metrics(perLayer, v)
	return res, nil
}

// overheadPairs is how many untraced and traced replays trace.overhead_frac
// compares, alternating which runs first so that drift in the host's speed
// falls on both sides. DBSCAN jobs are long enough that one pair suffices.
const overheadPairs = 3

// overheadFrac is the traced replays' total wall time over the untraced
// replays' less one. The first pair is the identity-checked one; the later
// replays run on the warmed stacks and only their time is used.
func overheadFrac(cfg config, in *inputs, pub *publicStack, ts *tracedStack, untraced, traced time.Duration) (float64, error) {
	if cfg.kind != kindDBSCAN {
		for i := 1; i < overheadPairs; i++ {
			for j := 0; j < 2; j++ {
				runTraced := (i+j)%2 == 1
				runtime.GC()
				var r *replay
				var err error
				if runTraced {
					r, err = replayTraced(cfg, in, ts)
				} else {
					r, err = replayPublic(cfg, in, pub)
				}
				if err != nil {
					return 0, fmt.Errorf("overhead replay: %w", err)
				}
				if runTraced {
					traced += r.wall
				} else {
					untraced += r.wall
				}
			}
		}
	}
	return traced.Seconds()/untraced.Seconds() - 1, nil
}

// layerWire fills in the wire metrics of a wire replay and returns the
// processor's execution time per batch: the server span less the JSON
// codec time the server spends on it.
func layerWire(ts *tracedStack, r *replay, d layerSnap, before layerSnap, queries float64, v map[string]float64) float64 {
	spans := ts.rec.spansFrom(before)
	var transit, codec, exec []time.Duration
	for i := range r.reqs {
		dec, enc := codecTime(r.reqs[i], r.resps[i])
		codec = append(codec, 2*(dec+enc))
		if i < len(spans) {
			transit = append(transit, r.ops[i]-spans[i])
			exec = append(exec, spans[i]-dec-enc)
		}
	}
	v["wire.rtt_ms"] = ms(medianDur(r.ops))
	v["wire.server_ms"] = ms(medianDur(spans))
	v["wire.transit_ms"] = ms(medianDur(transit))
	v["wire.codec_ms"] = ms(medianDur(codec))
	v["wire.bytes_per_query"] = float64(d.bytesIn+d.bytesOut) / queries
	return ms(medianDur(exec))
}

// codecTime times the JSON work of one round trip on the observed values:
// decoding the request line and encoding the response line (the server's
// share; the client's share mirrors it).
func codecTime(req wire.Request, resp wire.Response) (dec, enc time.Duration) {
	line, err := json.Marshal(req)
	if err != nil {
		return 0, 0
	}
	t0 := time.Now()
	var r wire.Request
	if json.Unmarshal(line, &r) != nil {
		return 0, 0
	}
	dec = time.Since(t0)
	t0 = time.Now()
	if _, err := json.Marshal(resp); err != nil {
		return dec, 0
	}
	return dec, time.Since(t0)
}

// batchGain is the per-query wall time of the first replay batch run as
// m single-query batches over the wall time per query of running it as
// one batch, both in process on the traced processor. It also returns the
// batch's statistics.
func batchGain(cfg config, in *inputs, ts *tracedStack) (float64, msq.Stats, error) {
	qs := knnQueries(in.pool[0], cfg.k)
	t0 := time.Now()
	_, st, err := ts.proc.NewSession().MultiQueryAll(qs)
	if err != nil {
		return 0, st, err
	}
	batched := time.Since(t0)
	t0 = time.Now()
	for _, q := range qs {
		if _, _, err := ts.proc.NewSession().MultiQueryAll([]msq.Query{q}); err != nil {
			return 0, st, err
		}
	}
	return time.Since(t0).Seconds() / batched.Seconds(), st, nil
}

// admitLayer runs the traced open loops of single queries, a third of dur
// at the light rate and then dur at the workload's rate, and fills in the
// serving, admission and generator metrics. It returns the loops'
// combined request counts.
func admitLayer(cfg config, in *inputs, ts *tracedStack, dur time.Duration, v map[string]float64) (outcome, error) {
	light := cfg
	light.rate = cfg.lowRate
	low, err := serveLoop(light, in, ts.srv.addr, dur/3, nil)
	if err != nil {
		return outcome{}, err
	}
	lowTail, _, _ := tailOf(low.lat)
	v["serve.lat_p50_ms.low"] = ms(medianDur(low.lat))
	v["serve.lat_tail_ms.low"] = ms(lowTail)

	adm := ts.srv.srv.Admitter()
	sub0, shed0 := adm.Submitted(), adm.Shed()
	out, err := serveLoop(cfg, in, ts.srv.addr, dur, adm.QueueDepth)
	if err != nil {
		return outcome{}, err
	}
	var widths float64
	for _, w := range out.widths {
		widths += float64(w)
	}
	tail, _, _ := tailOf(out.lat)
	serviceTail, _, _ := tailOf(out.service)
	late, _, _ := tailOf(out.late)
	v["serve.lat_p50_ms"] = ms(medianDur(out.lat))
	v["serve.lat_tail_ms"] = ms(tail)
	v["admit.width_avg"] = widths / float64(max(len(out.widths), 1))
	v["admit.service_ms"] = ms(medianDur(out.service))
	v["admit.service_tail_ms"] = ms(serviceTail)
	v["admit.queue_depth_max"] = float64(out.depthMax)
	v["admit.shed_frac"] = ratio(adm.Shed()-shed0, adm.Submitted()-sub0)
	v["gen.late_tail_ms"] = ms(late)
	return outcome{
		attempted: low.attempted + out.attempted,
		failed:    low.failed + out.failed,
		wrong:     low.wrong + out.wrong,
	}, nil
}

// queryDist is the workload's typical pruning distance: eps for DBSCAN,
// otherwise the median k-th nearest neighbor distance of the reference
// answers.
func queryDist(cfg config, in *inputs) float64 {
	if cfg.kind == kindDBSCAN {
		return cfg.eps
	}
	var ds []float64
	for _, b := range in.refs {
		for _, as := range b {
			ds = append(ds, as[len(as)-1].Dist)
		}
	}
	return median(ds)
}

// distNs times vec.DistanceWithin at the items' dimension on pairs of the
// items themselves, bounded by the workload's typical pruning distance
// limit, in nanoseconds per call.
func distNs(items []metricdb.Item, limit float64) float64 {
	const calls = 200000
	m := vec.Euclidean{}
	var sink float64
	n := len(items)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		d, _ := vec.DistanceWithin(m, items[i%n].Vec, items[(i*7+1)%n].Vec, limit)
		sink += d
	}
	el := time.Since(t0)
	if sink < 0 {
		logf("impossible negative distance sum")
	}
	return float64(el.Nanoseconds()) / calls
}

func evictions(p *store.Pager) int64 {
	if b := p.Buffer(); b != nil {
		return b.Evictions()
	}
	return 0
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fromWireStats converts the wire's statistics subset.
func fromWireStats(s wire.Stats) msq.Stats {
	return msq.Stats{
		Queries: s.Queries, PagesRead: s.PagesRead, DistCalcs: s.DistCalcs,
		MatrixDistCalcs: s.MatrixDistCalcs, AvoidTries: s.AvoidTries, Avoided: s.Avoided,
		PartialAbandoned: s.PartialAbandoned, PivotDistCalcs: s.PivotDistCalcs,
	}
}
