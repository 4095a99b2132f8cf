// Package obs is the observability layer of the query processor: span
// tracing on the monotonic clock with per-phase latency histograms, a
// slow-query log, a bounded trace buffer exportable as JSONL, and a metrics
// registry with Prometheus text exposition. It is stdlib-only and strictly
// observational: nothing in this package influences query answers, page
// scheduling, or the paper's cost counters.
//
// The paper's evaluation (§5.1 I/O cost, §5.2 CPU cost avoidance) is
// expressed in end-of-run totals — pages read, distance calculations,
// avoidance tries. Those totals say nothing about *where wall-clock time
// went inside a batch*: waiting for a page, running the distance kernel,
// probing the triangle-inequality lemmas, merging per-query answers, or
// encoding responses. The phase histograms here provide exactly that
// decomposition, the precondition for any further "fast as the hardware
// allows" tuning, and the VA-file line of work (Weber et al., VLDB 1998)
// motivates the same split: its win is shifting cost between approximation
// scan and exact refinement, invisible without per-phase timers.
//
// # Nil-hook fast path
//
// Every Tracer method is safe — and a near-free no-op — on a nil receiver.
// Instrumented code therefore holds a possibly-nil *Tracer and calls it
// unconditionally at coarse-grained sites (one span per page, per request,
// per server call), or guards fine-grained accumulation behind a single
// `tr != nil` test hoisted out of the hot loop. The disabled cost is one
// predictable branch per page, which the overhead gate in
// overhead_test.go bounds at <= 2 % on the kernel hot path.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one stage of query processing whose latency is
// histogrammed separately. The taxonomy follows the life of a multiple
// similarity query: plan the pages, build the query-distance matrix, then
// per page fetch/wait and evaluation (avoidance checks, kernels and answer
// merging) — plus the serving layer's per-server calls and wire codec work.
type Phase uint8

// Phases. The String values are the `phase` label on the exported
// metricdb_phase_duration_seconds histogram.
const (
	// PhasePageFetch is one simulated-disk page read (a buffer miss),
	// observed inside the store pager.
	PhasePageFetch Phase = iota
	// PhasePageWait is the query processor's wait for a page: one ReadPage
	// call (buffer hits are ~0).
	PhasePageWait
	// PhasePlan is determine_relevant_data_pages: one engine Plan call.
	PhasePlan
	// PhaseMatrix is the inter-query distance matrix build (§5.2's
	// quadratic-in-m initialization overhead).
	PhaseMatrix
	// PhaseKernel is the evaluation of one page against its active
	// queries, timed as a whole: Lemma-1/2 avoidance checks, bounded
	// distance kernels and the inline answer-list merge. No clock is read
	// per (item, query) pair.
	PhaseKernel
	// PhaseServerCall is one per-server call of the parallel cluster
	// (attempt granularity, including retries separately).
	PhaseServerCall
	// PhaseWireDecode is the JSON decode of one wire request.
	PhaseWireDecode
	// PhaseWireEncode is the JSON encode + flush of one wire response.
	PhaseWireEncode
	// PhaseAdmitWait is the time one admitted single query spent in the
	// admission queue before its batch was released (internal/admit).
	PhaseAdmitWait
	// PhaseStorageRead is one real-I/O page read of a file-backed disk
	// (store.FileDisk): the pread (or mapped copy), checksum verification
	// and decode of one page record. A nested refinement of the pager's
	// PhasePageFetch span that attributes how much of a miss was spent in
	// actual storage rather than singleflight bookkeeping.
	PhaseStorageRead

	// NumPhases is the number of phases (array sizing).
	NumPhases = int(iota)
)

var phaseNames = [NumPhases]string{
	"page_fetch",
	"page_wait",
	"plan",
	"matrix",
	"kernel",
	"server_call",
	"wire_decode",
	"wire_encode",
	"admit_wait",
	"storage_read",
}

// String returns the phase's label value.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseNames returns the label values of all phases, indexed by Phase.
func PhaseNames() []string {
	names := make([]string, NumPhases)
	copy(names, phaseNames[:])
	return names
}

// Config tunes a Tracer. The zero value enables everything with defaults.
type Config struct {
	// SlowQueryThreshold is the duration at or above which a finished
	// query call is recorded in the slow-query log. Zero selects
	// DefaultSlowQueryThreshold; a negative value disables the log.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring (0: DefaultSlowLogSize).
	SlowLogSize int
	// TraceBufferSize bounds the span ring served by /debug/traces and
	// WriteTraces (0: DefaultTraceBufferSize; negative disables span
	// retention, keeping only the histograms). The same size bounds the
	// distributed-span ring (StartSpan/ImportSpans).
	TraceBufferSize int
	// Node labels every distributed span this tracer records, so spans
	// stitched across processes identify their origin ("coordinator",
	// "srv2", ...). Empty leaves spans unlabelled.
	Node string
}

// Defaults for Config's zero values.
const (
	DefaultSlowQueryThreshold = 100 * time.Millisecond
	DefaultSlowLogSize        = 128
	DefaultTraceBufferSize    = 4096
)

// Tracer collects per-phase latency histograms, recent spans, and slow
// queries. All methods are safe on a nil *Tracer (no-ops) and safe for
// concurrent use: histograms are atomic, the rings are mutex-guarded.
type Tracer struct {
	start   time.Time
	node    string
	hist    [NumPhases]Histogram
	spans   *spanRing
	dist    *distRing
	slow    *SlowLog
	queries atomic.Int64 // query calls observed via RecordQuery
}

// New creates a Tracer. The returned tracer's clock origin is now; span
// timestamps in trace exports are offsets from it.
func New(cfg Config) *Tracer {
	if cfg.SlowQueryThreshold == 0 {
		cfg.SlowQueryThreshold = DefaultSlowQueryThreshold
	}
	if cfg.SlowLogSize == 0 {
		cfg.SlowLogSize = DefaultSlowLogSize
	}
	if cfg.TraceBufferSize == 0 {
		cfg.TraceBufferSize = DefaultTraceBufferSize
	}
	t := &Tracer{start: time.Now(), node: cfg.Node}
	if cfg.SlowQueryThreshold > 0 {
		t.slow = newSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogSize)
	}
	if cfg.TraceBufferSize > 0 {
		t.spans = newSpanRing(cfg.TraceBufferSize)
		t.dist = newDistRing(cfg.TraceBufferSize)
	}
	return t
}

// Node returns the tracer's node label ("" on nil tracers).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Enabled reports whether the tracer is live. Hot loops hoist this test
// once per page instead of calling Observe per item.
func (t *Tracer) Enabled() bool { return t != nil }

// Observe records one duration under phase: a histogram sample and, when
// span retention is on, a trace entry stamped at the observation time.
func (t *Tracer) Observe(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.hist[p].Observe(d)
	if t.spans != nil {
		t.spans.add(span{at: time.Since(t.start) - d, phase: p, dur: d})
	}
}

// ObserveSince records the time elapsed since start under phase.
func (t *Tracer) ObserveSince(p Phase, start time.Time) {
	if t == nil {
		return
	}
	t.Observe(p, time.Since(start))
}

// Span is an in-progress phase measurement. The zero Span (from a nil
// tracer) is valid and End is a no-op on it.
type Span struct {
	t     *Tracer
	phase Phase
	start time.Time
}

// Start begins a span. On a nil tracer it returns the zero Span without
// reading the clock.
func (t *Tracer) Start(p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, phase: p, start: time.Now()}
}

// End finishes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(s.phase, time.Since(s.start))
}

// RecordQuery accounts one finished query-processing call: op names the
// entry point ("single", "multi", "multi_all"), m is the batch size, d the
// wall-clock duration, and the counters are the call's own Stats deltas.
// Calls at or above the slow-query threshold land in the slow log.
func (t *Tracer) RecordQuery(op string, m int, d time.Duration, pagesRead, distCalcs, avoided int64) {
	if t == nil {
		return
	}
	t.queries.Add(1)
	if t.slow != nil {
		t.slow.record(op, m, d, pagesRead, distCalcs, avoided)
	}
}

// Queries returns the number of query calls recorded via RecordQuery.
func (t *Tracer) Queries() int64 {
	if t == nil {
		return 0
	}
	return t.queries.Load()
}

// SlowQueries returns the retained slow-query records, oldest first. Nil
// tracers and disabled slow logs return nil.
func (t *Tracer) SlowQueries() []SlowQuery {
	if t == nil || t.slow == nil {
		return nil
	}
	return t.slow.entries()
}

// SlowQueryThreshold returns the active threshold (0 when disabled).
func (t *Tracer) SlowQueryThreshold() time.Duration {
	if t == nil || t.slow == nil {
		return 0
	}
	return t.slow.threshold
}

// Histogram returns a snapshot of one phase's latency histogram.
func (t *Tracer) Snapshot(p Phase) HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.hist[p].Snapshot()
}

// Snapshots returns snapshots of all phase histograms, indexed by Phase.
func (t *Tracer) Snapshots() []HistSnapshot {
	out := make([]HistSnapshot, NumPhases)
	if t == nil {
		return out
	}
	for p := 0; p < NumPhases; p++ {
		out[p] = t.hist[p].Snapshot()
	}
	return out
}
