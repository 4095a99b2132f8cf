package main

import "time"

// kind selects how a workload drives the system.
type kind int

const (
	// kindBatch is a closed loop of multi_all batches over the wire; its
	// traced run adds open loops of single queries through admission.
	kindBatch kind = iota
	// kindDBSCAN runs DB.DBSCAN jobs in process.
	kindDBSCAN
	// kindStored runs Batch.QueryAll batches in process on a stored
	// (file-backed) database.
	kindStored
)

// dataKind selects the generator of a workload's items.
type dataKind int

const (
	// nearUniform is the astronomy substitute: cluster-free 20-d vectors
	// of intrinsic dimension 8.
	nearUniform dataKind = iota
	// clustered8 is the 8-d Gaussian mixture of examples/clustering.
	clustered8
	// image64 is the image substitute: clustered 64-d histograms.
	image64
)

// config is one workload. Every size is fixed here; only the seed comes
// from the command line.
type config struct {
	name string
	kind kind
	data dataKind
	n    int
	dim  int
	// m is the batch width (kindBatch, kindStored) or the DBSCAN batch
	// size; k is the k of the k-NN queries.
	m, k int
	// pool is the number of distinct batches whose reference answers
	// are computed before the timed loop, which cycles through them.
	pool int
	// rate and lowRate are the fixed arrival rates, in requests per
	// second, of the traced run's open loops of single queries, and limit
	// the latency limit an answer must meet to count (kindBatch).
	rate, lowRate float64
	limit         time.Duration
	// eps and minPts are the DBSCAN density parameters.
	eps    float64
	minPts int
	// replay is the number of operations (batches, requests or jobs) of
	// the deterministic replay the traced run compares.
	replay int
}

// serveConns is the open loop's connection count: the load generator
// shares a two-core host with the server, so it keeps to two.
const serveConns = 2

// workloads are the benchmark's workloads by name. BENCHMARK.json records
// the same sizes and rates in each workload's "why".
var workloads = map[string]config{
	"knn-batch": {
		name: "knn-batch", kind: kindBatch, data: nearUniform,
		n: 100000, dim: 20, m: 100, k: 10, pool: 8,
		rate: 80, lowRate: 25, limit: time.Second,
		replay: 3,
	},
	"dbscan": {
		name: "dbscan", kind: kindDBSCAN, data: clustered8,
		n: 12000, dim: 8, m: 50, eps: 0.10, minPts: 6,
		replay: 1,
	},
	"stored-explore": {
		name: "stored-explore", kind: kindStored, data: image64,
		n: 60000, dim: 64, m: 40, k: 20, pool: 16,
		replay: 8,
	},
}

// metricDef names one reported metric. The lists below are what
// BENCHMARK.json records; the smoke test checks the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_tail_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run, reported on every workload
// (zero where the workload does not reach the layer).
var perLayer = []metricDef{
	{"wire.rtt_ms", "ms", "lower"},
	{"wire.server_ms", "ms", "lower"},
	{"wire.transit_ms", "ms", "lower"},
	{"wire.codec_ms", "ms", "lower"},
	{"wire.bytes_per_query", "B", "lower"},
	{"admit.width_avg", "count", "higher"},
	{"admit.service_ms", "ms", "lower"},
	{"admit.service_tail_ms", "ms", "lower"},
	{"admit.queue_depth_max", "count", "lower"},
	{"admit.shed_frac", "ratio", "lower"},
	{"msq.exec_ms", "ms", "lower"},
	{"msq.self_ms", "ms", "lower"},
	{"msq.dist_calcs_per_query", "count", "lower"},
	{"msq.avoid_tries_per_query", "count", "lower"},
	{"msq.avoided_frac", "ratio", "higher"},
	{"msq.avoid_hit_ratio", "ratio", "higher"},
	{"msq.abandon_frac", "ratio", "higher"},
	{"msq.matrix_dist_calcs", "count", "lower"},
	{"msq.page_visits_per_read", "ratio", "higher"},
	{"msq.batch_gain", "ratio", "higher"},
	{"vec.dist_ns", "ns", "lower"},
	{"vec.kernel_share", "ratio", "higher"},
	{"engine.prepare_us_per_query", "us", "lower"},
	{"engine.read_calls_per_query", "count", "lower"},
	{"engine.pivot_dist_calcs_per_query", "count", "lower"},
	{"store.pages_read_per_query", "count", "lower"},
	{"store.buffer_hit_ratio", "ratio", "higher"},
	{"store.evictions_per_query", "count", "lower"},
	{"store.read_us_per_page", "us", "lower"},
	{"store.preads_per_query", "count", "lower"},
	{"store.bytes_read_per_query", "B", "lower"},
	{"store.seq_read_frac", "ratio", "higher"},
	{"store.checksum_failures", "count", "lower"},
	{"explore.steps_per_job", "count", "lower"},
	{"explore.pages_read_per_step", "count", "lower"},
	{"explore.dist_calcs_per_step", "count", "lower"},
	{"serve.lat_p50_ms", "ms", "lower"},
	{"serve.lat_tail_ms", "ms", "lower"},
	{"serve.lat_p50_ms.low", "ms", "lower"},
	{"serve.lat_tail_ms.low", "ms", "lower"},
	{"gen.late_tail_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metrics builds a result's metric map from values keyed by name, with
// every metric of defs present (missing values report zero).
func metrics(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
