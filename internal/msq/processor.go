package msq

import (
	"fmt"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// AvoidanceMode selects which triangle-inequality lemmas the multi-query
// processor applies to avoid distance calculations.
type AvoidanceMode int

// Avoidance modes. The paper always uses both lemmas; the single-lemma
// modes exist for the ablation experiments.
const (
	// AvoidBoth applies Lemma 1 and Lemma 2 (the paper's method).
	AvoidBoth AvoidanceMode = iota
	// AvoidOff disables avoidance entirely.
	AvoidOff
	// AvoidLemma1 only skips objects far from a known query object
	// (dist(O,Qj) large, Qi close to Qj).
	AvoidLemma1
	// AvoidLemma2 only skips objects close to a known query object that
	// is far from Qi.
	AvoidLemma2
)

// String names the mode.
func (m AvoidanceMode) String() string {
	switch m {
	case AvoidBoth:
		return "both"
	case AvoidOff:
		return "off"
	case AvoidLemma1:
		return "lemma1"
	case AvoidLemma2:
		return "lemma2"
	default:
		return fmt.Sprintf("avoidance(%d)", int(m))
	}
}

// Options tunes the processor.
type Options struct {
	// Avoidance selects the triangle-inequality mode (default AvoidBoth).
	Avoidance AvoidanceMode
	// Concurrency is the intra-server pipeline width: the number of worker
	// goroutines that evaluate a data page's items against the active
	// queries, plus a prefetcher that overlaps page I/O with evaluation.
	// 0 and 1 select the sequential path (today's behavior). Any width
	// produces bit-identical answers and an identical disk read sequence;
	// see internal/msq/pipeline.go for the determinism argument.
	Concurrency int
}

// Query is one element of a multiple similarity query: a caller-chosen
// identity (used to associate buffered partial answers across incremental
// calls), the query object, and the query type.
type Query struct {
	ID   uint64
	Vec  vec.Vector
	Type query.Type
}

// Validate checks the query specification.
func (q Query) Validate() error {
	if len(q.Vec) == 0 {
		return fmt.Errorf("msq: query %d has an empty vector", q.ID)
	}
	if err := q.Type.Validate(); err != nil {
		return fmt.Errorf("msq: query %d: %w", q.ID, err)
	}
	return nil
}

// Processor evaluates similarity queries against one engine. It is the
// DB::similarity_query / DB::multiple_similarity_query implementation of
// the paper, parameterized by the physical organization.
type Processor struct {
	eng    engine.Engine
	metric *vec.Counting
	opts   Options
	// tracer, when non-nil, receives per-phase spans and slow-query records
	// for every query this processor evaluates. Instrumented loops hoist one
	// enabled test per page, so a nil tracer costs a predictable branch —
	// see the overhead gate in internal/obs. Tracing is observation-only:
	// answers and the DistCalcs/Avoided/AvoidTries counters are identical
	// with and without a tracer (pinned by the traced differential test).
	tracer *obs.Tracer
	// rows is the blocked kernel matching the metric, used on pages that
	// carry a float64 block. Built once; the row loops report their
	// calc/abandon totals through the same counting metric as the scalar
	// path.
	rows vec.BlockKernel
}

// New creates a processor over eng using metric m. The metric is wrapped in
// a counter (reused if m already is one), which is how distance
// calculations are charged.
func New(eng engine.Engine, m vec.Metric, opts Options) (*Processor, error) {
	if eng == nil {
		return nil, fmt.Errorf("msq: nil engine")
	}
	if m == nil {
		return nil, fmt.Errorf("msq: nil metric")
	}
	if opts.Concurrency < 0 {
		return nil, fmt.Errorf("msq: concurrency must be >= 0, got %d", opts.Concurrency)
	}
	counting, ok := m.(*vec.Counting)
	if !ok {
		counting = vec.NewCounting(m)
	}
	return &Processor{eng: eng, metric: counting, opts: opts, rows: vec.NewBlockKernel(counting.Kernel())}, nil
}

// Engine returns the underlying engine.
func (p *Processor) Engine() engine.Engine { return p.eng }

// Metric returns the counting metric used for all distance calculations.
func (p *Processor) Metric() *vec.Counting { return p.metric }

// Options returns the processor options.
func (p *Processor) Options() Options { return p.opts }

// Concurrency returns the effective pipeline width (at least 1).
func (p *Processor) Concurrency() int {
	if p.opts.Concurrency > 1 {
		return p.opts.Concurrency
	}
	return 1
}

// WithConcurrency returns a processor sharing this processor's engine and
// counting metric but running its multi-query pipeline at the given width.
// It lets a serving layer widen (or pin) the pipeline without rebuilding
// the engine. Widths below 2 select the sequential path.
func (p *Processor) WithConcurrency(n int) *Processor {
	if n < 0 {
		n = 0
	}
	opts := p.opts
	opts.Concurrency = n
	return &Processor{eng: p.eng, metric: p.metric, opts: opts, tracer: p.tracer, rows: p.rows}
}

// Tracer returns the tracer this processor reports to, or nil.
func (p *Processor) Tracer() *obs.Tracer { return p.tracer }

// WithTracer returns a processor sharing this processor's engine and
// counting metric but reporting phase spans and slow queries to tr (nil
// disables tracing). As a side effect it installs tr on the shared engine's
// pager, so page_fetch spans from the same engine — including those issued
// through other processors over it — are attributed to tr.
func (p *Processor) WithTracer(tr *obs.Tracer) *Processor {
	p.eng.Pager().SetTracer(tr)
	return &Processor{eng: p.eng, metric: p.metric, opts: p.opts, tracer: tr, rows: p.rows}
}
