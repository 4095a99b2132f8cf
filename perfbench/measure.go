package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metricdb"
	"metricdb/internal/wire"
)

// outcome is what a timed loop measured.
type outcome struct {
	// lat are the per-operation latencies: per batch, per request
	// (timed from its due time) or per DBSCAN job.
	lat []time.Duration
	// attempted and failed count operations; an operation is one query
	// answer, or one DBSCAN job.
	attempted, failed int64
	// wrong counts the failed operations whose answer was checked and
	// found wrong, as opposed to shed, errored or over the limit.
	wrong int64
	// answers counts correct query answers (DBSCAN: range queries of
	// correct jobs); qps is answers over elapsed.
	answers int64
	elapsed time.Duration
	// late are an open loop's send delays behind schedule.
	late []time.Duration
	// service and widths are the admission controller's in-system time
	// and block width of each answered request, and depthMax the deepest
	// admission queue seen at a send (open loop only).
	service  []time.Duration
	widths   []int
	depthMax int
}

// Set-up is repeated at least minSetupReps times and until it has taken
// minSetup in total (at most maxSetupReps times), so that sub-millisecond
// set-ups still yield a steady median.
const (
	minSetupReps = 3
	minSetup     = 300 * time.Millisecond
	maxSetupReps = 100
)

// measure is the untraced run: set-up repeated, the heap after set-up,
// then the timed loop and the answer checks.
func measure(cfg config, in *inputs, dur time.Duration) (result, error) {
	var setups []float64
	var st *publicStack
	var spent time.Duration
	for r := 0; r < maxSetupReps && (r < minSetupReps || spent < minSetup); r++ {
		if st != nil {
			if err := st.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = openPublic(cfg, in); err != nil {
			return result{}, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer st.close() //nolint:errcheck // the result is already decided
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	in.computeRefs(cfg)
	runtime.GC()
	var out outcome
	var err error
	switch cfg.kind {
	case kindBatch:
		out, err = batchLoop(cfg, in, st.srv.addr, dur)
	case kindDBSCAN:
		out, err = dbscanLoop(cfg, in, st.db, dur)
	case kindStored:
		out, err = storedLoop(cfg, in, st.db, dur)
	}
	if err != nil {
		return result{}, err
	}
	p50 := medianDur(out.lat)
	tail, pct, beyond := tailOf(out.lat)
	logf("%s: %d ops, %d failed, qps %.2f, p50 %.3f ms, tail p%.1f %.3f ms (%d of %d samples beyond), setup median of %d %.6f s, heap %.1f MB",
		cfg.name, out.attempted, out.failed, float64(out.answers)/out.elapsed.Seconds(), ms(p50), pct, ms(tail), beyond, len(out.lat), len(setups), median(setups), heapMB)
	return result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: metrics(endToEnd, map[string]float64{
			"setup_s":     median(setups),
			"qps":         float64(out.answers) / out.elapsed.Seconds(),
			"lat_p50_ms":  ms(p50),
			"lat_tail_ms": ms(tail),
			"heap_mb":     heapMB,
		}),
	}, nil
}

// batchLoop is knn-batch: a closed loop of one client sending multi_all
// batches, each on a fresh connection.
func batchLoop(cfg config, in *inputs, addr string, dur time.Duration) (outcome, error) {
	type rec struct {
		b       int
		answers [][]wire.Answer
	}
	var recs []rec
	var out outcome
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		b := i % len(in.pool)
		specs := knnSpecs(in.pool[b], uint64(i*cfg.m), cfg.k)
		t0 := time.Now()
		answers, _, err := multiAll(addr, specs)
		if err != nil {
			return out, fmt.Errorf("batch %d: %w", i, err)
		}
		out.lat = append(out.lat, time.Since(t0))
		recs = append(recs, rec{b, answers})
	}
	out.elapsed = time.Since(start)
	for _, r := range recs {
		out.score(in, r.b, r.answers)
	}
	return out, nil
}

// score checks the wire answers of pool batch b.
func (out *outcome) score(in *inputs, b int, answers [][]wire.Answer) {
	qs := in.pool[b]
	out.attempted += int64(len(qs))
	for q := range qs {
		if q < len(answers) && checkKNN(in.items, qs[q], fromWire(answers[q]), in.refs[b][q]) {
			out.answers++
		} else {
			out.failed++
			out.wrong++
		}
	}
}

// serveLoop is an open loop of single k-NN requests due at fixed
// intervals of 1/rate, sent over serveConns connections. A request
// waits for a free connection if all are busy; its latency runs from its
// due time, so a stall delays every request behind it. Requests that fail,
// are shed, answer wrongly or exceed cfg.limit count as failed. depth,
// when non-nil, samples the admission queue depth at every send.
func serveLoop(cfg config, in *inputs, addr string, dur time.Duration, depth func() int) (outcome, error) {
	type rec struct {
		i               int
		due, sent, done time.Time
		answers         []wire.Answer
		stats           wire.Stats
		depth           int
		err             error
	}
	total := int(cfg.rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / cfg.rate)
	clients := make([]*wire.Client, serveConns)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			return outcome{}, err
		}
		defer c.Close()
		clients[i] = c
	}
	var next atomic.Int64
	recs := make([][]rec, len(clients))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *wire.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := rec{i: i, due: due}
				if depth != nil {
					r.depth = depth()
				}
				r.sent = time.Now()
				b, q := in.single(i)
				spec := wire.QuerySpec{Vector: in.pool[b][q], Kind: "knn", K: cfg.k}
				r.answers, r.stats, r.err = c.QueryContext(context.Background(), spec)
				r.done = time.Now()
				recs[w] = append(recs[w], r)
			}
		}(w, c)
	}
	wg.Wait()
	var out outcome
	var last time.Time
	for _, rs := range recs {
		for _, r := range rs {
			lat := r.done.Sub(r.due)
			out.lat = append(out.lat, lat)
			out.late = append(out.late, r.sent.Sub(r.due))
			if r.done.After(last) {
				last = r.done
			}
			out.depthMax = max(out.depthMax, r.depth)
			if r.err == nil {
				out.service = append(out.service, time.Duration(r.stats.ServiceUs)*time.Microsecond)
				out.widths = append(out.widths, r.stats.BatchWidth)
			}
			out.attempted++
			b, q := in.single(r.i)
			switch {
			case r.err != nil || lat > cfg.limit:
				out.failed++
			case !checkKNN(in.items, in.pool[b][q], fromWire(r.answers), in.refs[b][q]):
				out.failed++
				out.wrong++
			default:
				out.answers++
			}
		}
	}
	out.elapsed = last.Sub(start)
	return out, nil
}

// dbscanLoop is dbscan: DB.DBSCAN jobs back to back.
func dbscanLoop(cfg config, in *inputs, db *metricdb.DB, dur time.Duration) (outcome, error) {
	var results []*metricdb.DBSCANResult
	var out outcome
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		res, err := db.DBSCAN(cfg.eps, cfg.minPts, cfg.m)
		if err != nil {
			return out, fmt.Errorf("dbscan: %w", err)
		}
		out.lat = append(out.lat, time.Since(t0))
		results = append(results, res)
	}
	out.elapsed = time.Since(start)
	for _, res := range results {
		out.attempted++
		if checkPartition(in.dbscan, res.Labels) {
			out.answers += int64(res.Stats.Steps)
		} else {
			out.failed++
			out.wrong++
		}
	}
	return out, nil
}

// storedLoop is stored-explore: Batch.QueryAll on a fresh batch per
// iteration, back to back.
func storedLoop(cfg config, in *inputs, db *metricdb.DB, dur time.Duration) (outcome, error) {
	type rec struct {
		b       int
		answers [][]metricdb.Answer
	}
	var recs []rec
	var out outcome
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		b := i % len(in.pool)
		queries := knnQueries(in.pool[b], cfg.k)
		t0 := time.Now()
		answers, _, err := db.NewBatch().QueryAll(queries)
		if err != nil {
			return out, fmt.Errorf("batch %d: %w", i, err)
		}
		out.lat = append(out.lat, time.Since(t0))
		recs = append(recs, rec{b, answers})
	}
	out.elapsed = time.Since(start)
	for _, r := range recs {
		qs := in.pool[r.b]
		out.attempted += int64(len(qs))
		for q := range qs {
			if q < len(r.answers) && checkKNN(in.items, qs[q], r.answers[q], in.refs[r.b][q]) {
				out.answers++
			} else {
				out.failed++
				out.wrong++
			}
		}
	}
	return out, nil
}

// medianDur returns the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sorted(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of ds with at least ten samples
// and at least 5 % of the samples beyond it, the percentile, and the
// number of samples beyond it. Below twenty samples that percentile would
// not exceed the median, so it returns the maximum instead. The 5 % floor
// keeps the serving tail off the last few requests, which on a shared
// host mostly time the host's scheduling stalls rather than the system.
func tailOf(ds []time.Duration) (v time.Duration, pct float64, beyond int) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	s := sorted(ds)
	n := len(s)
	if n < 20 {
		return s[n-1], 100, 0
	}
	beyond = max(10, n/20)
	return s[n-1-beyond], 100 * float64(n-beyond) / float64(n), beyond
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
