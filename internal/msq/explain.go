package msq

import (
	"context"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
)

// EXPLAIN: per-query cost profiles for one batch. The paper's counters
// (§5.1 pages read, §5.2 distance calculations and avoidance tries) are
// batch totals; a profile attributes them to the individual query position
// — which queries paid for the shared pages, which lemma did the avoiding,
// how often the bounded kernel abandoned — plus the call's buffer-pool
// behaviour and per-phase wall time. Like tracing, EXPLAIN is strictly
// observational: it runs the same page evaluator as an unobserved call,
// which adds per-pair attribution only through its nil-able explain state
// and makes byte-for-byte the same avoidance, abandonment and Consider
// decisions, so answers and the batch counters are identical with and
// without profiling. Phase wall time is taken per page, never per pair.
// Wall-time fields are timing, not counters, and are never expected to be
// stable.

// Profile is the EXPLAIN record of one query position in a batch.
type Profile struct {
	// ID is the caller-chosen query identity.
	ID uint64 `json:"id"`
	// Kind is the query type ("range" or "knn").
	Kind string `json:"kind"`
	// PagesVisited counts the data pages examined for this query: pages
	// where the query was active when the page started, plus its seed page.
	PagesVisited int64 `json:"pages_visited"`
	// DistCalcs counts the object distance evaluations charged to this
	// query (full or early-abandoned; the matrix overhead is batch-level).
	DistCalcs int64 `json:"dist_calcs"`
	// Abandoned counts the DistCalcs the bounded kernel cut short.
	Abandoned int64 `json:"abandoned"`
	// Lemma1Avoided / Lemma2Avoided split the avoided calculations by the
	// lemma that proved them irrelevant (Definition 5). Under AvoidBoth a
	// pair satisfying both lemmas is attributed to Lemma 1, which the
	// probe tests first.
	Lemma1Avoided int64 `json:"lemma1_avoided"`
	Lemma2Avoided int64 `json:"lemma2_avoided"`
	// AvoidTries counts the triangle-inequality probes spent on this query.
	AvoidTries int64 `json:"avoid_tries"`
	// Answers is the query's final answer count.
	Answers int `json:"answers"`
}

// Offered returns the query's offered set: every (item, query) pair the
// page loop considered, whether calculated or avoided.
func (p Profile) Offered() int64 {
	return p.DistCalcs + p.Lemma1Avoided + p.Lemma2Avoided
}

// Explain is the profile of one ExplainAllContext call: per-query
// attribution plus the batch-level shared costs.
type Explain struct {
	// Engine is the physical organization the batch ran against.
	Engine string `json:"engine"`
	// EngineConfig is the engine's self-described tuning (pivot count,
	// approximation bits, directory fanout) for engines that implement
	// engine.Described; the zero value means the engine describes nothing.
	EngineConfig engine.Config `json:"engine_config,omitzero"`
	// Avoidance is the triangle-inequality mode ("both", "off", ...).
	Avoidance string `json:"avoidance"`
	// Queries holds one profile per query position, batch order.
	Queries []Profile `json:"queries"`
	// Stats is the call's batch-level counter record (the same Stats a
	// MultiQueryAll call returns).
	Stats Stats `json:"stats"`
	// BufferHits/BufferMisses/BufferEvictions are the LRU buffer-pool
	// deltas over the call; BufferHitRatio is hits/(hits+misses), 0 when
	// the call touched no pages (or the pager is unbuffered).
	BufferHits      int64   `json:"buffer_hits"`
	BufferMisses    int64   `json:"buffer_misses"`
	BufferEvictions int64   `json:"buffer_evictions"`
	BufferHitRatio  float64 `json:"buffer_hit_ratio"`
	// PhaseNs is the call's wall time per phase (plan, matrix, page_wait,
	// kernel), in nanoseconds. kernel times whole pages, so it includes the
	// Lemma 1/2 avoidance checks and the answer-list merge. Phases the call
	// never entered are absent.
	PhaseNs map[string]int64 `json:"phase_ns"`
	// WallNs is the call's total wall time.
	WallNs int64 `json:"wall_ns"`
	// Predicted, when present, holds the advisor's cost predictions for
	// the engine the batch ran on — the raw model row and, when a
	// calibration recorder has samples, the calibrated row — so the
	// prediction sits next to the observed counters it should match. msq
	// itself never fills this (the cost model lives above this package);
	// the metricdb layer annotates it after the profiling run.
	Predicted []PredictedCost `json:"predicted,omitempty"`
}

// PredictedCost is one predicted cost row for an EXPLAIN: the advisor's
// estimate of the batch's counters and wall time under one model variant.
// The fields mirror cost.EngineEstimate without importing it (cost sits
// above msq in the dependency order).
type PredictedCost struct {
	// Engine is the engine the prediction priced.
	Engine string `json:"engine"`
	// Source is the model variant: "model" for the raw analytic constants,
	// "calibrated" after per-engine correction factors.
	Source         string `json:"source"`
	PagesRead      int64  `json:"pages_read"`
	DistCalcs      int64  `json:"dist_calcs"`
	PivotDistCalcs int64  `json:"pivot_dist_calcs,omitempty"`
	TotalNs        int64  `json:"total_ns"`
}

// explainCounters is the mutable accumulator behind one Profile. Only the
// goroutine holding the session's mutex touches it, so the fields are
// plain integers.
type explainCounters struct {
	pagesVisited, distCalcs, abandoned, lemma1, lemma2, tries int64
}

// explainState is attached to a Session for the duration of one
// ExplainAllContext call; the page evaluator attributes its per-pair
// decisions to it when present. prof is indexed by global batch position.
type explainState struct {
	prof    []explainCounters
	phaseNs [obs.NumPhases]int64
}

func newExplainState(m int) *explainState {
	return &explainState{prof: make([]explainCounters, m)}
}

// observe accumulates phase wall time (the explain counterpart of
// Tracer.Observe).
func (ex *explainState) observe(p obs.Phase, d time.Duration) {
	ex.phaseNs[p] += max(int64(d), 0)
}

// attributeProbe charges one avoidance decision's probes and, when it
// avoided the pair, the lemma that fired.
func (c *explainCounters) attributeProbe(avoided, byLemma1 bool, tries int64) {
	c.tries += tries
	switch {
	case !avoided:
	case byLemma1:
		c.lemma1++
	default:
		c.lemma2++
	}
}

// attributeCalc charges one distance calculation and, when the bounded
// kernel cut it short, its abandonment.
func (c *explainCounters) attributeCalc(within bool) {
	c.distCalcs++
	if !within {
		c.abandoned++
	}
}

// ExplainAllContext evaluates the whole batch to completion, exactly like
// MultiQueryAllContext, while building per-query profiles. The profiling
// run is a real run: answers land in the session's buffers and the
// returned Stats match what MultiQueryAllContext would have reported for
// the same call. Sessions with buffered progress are profiled for the
// remaining work only.
func (s *Session) ExplainAllContext(ctx context.Context, queries []Query) (*Explain, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ex := newExplainState(len(queries))
	s.explain = ex
	defer func() { s.explain = nil }()

	var hits0, misses0, evict0 int64
	buf := s.proc.eng.Pager().Buffer()
	if buf != nil {
		hits0, misses0, _ = buf.HitRate()
		evict0 = buf.Evictions()
	}
	begin := time.Now()

	results, stats, err := s.multiQueryAllLocked(ctx, queries)
	if err != nil {
		return nil, err
	}

	out := &Explain{
		Engine: s.proc.eng.Name(),
		EngineConfig: func() engine.Config {
			if d, ok := s.proc.eng.(engine.Described); ok {
				return d.Describe()
			}
			return engine.Config{}
		}(),
		Avoidance: s.proc.opts.Avoidance.String(),
		Queries:   make([]Profile, len(queries)),
		Stats:     stats,
		PhaseNs:   make(map[string]int64),
		WallNs:    int64(time.Since(begin)),
	}
	if buf != nil {
		hits1, misses1, _ := buf.HitRate()
		out.BufferHits = hits1 - hits0
		out.BufferMisses = misses1 - misses0
		out.BufferEvictions = buf.Evictions() - evict0
		if total := out.BufferHits + out.BufferMisses; total > 0 {
			out.BufferHitRatio = float64(out.BufferHits) / float64(total)
		}
	}
	for p := 0; p < obs.NumPhases; p++ {
		if ns := ex.phaseNs[p]; ns > 0 {
			out.PhaseNs[obs.Phase(p).String()] = ns
		}
	}
	for i := range queries {
		c := &ex.prof[i]
		out.Queries[i] = Profile{
			ID:            queries[i].ID,
			Kind:          queries[i].Type.Kind.String(),
			PagesVisited:  c.pagesVisited,
			DistCalcs:     c.distCalcs,
			Abandoned:     c.abandoned,
			Lemma1Avoided: c.lemma1,
			Lemma2Avoided: c.lemma2,
			AvoidTries:    c.tries,
			Answers:       results[i].Len(),
		}
	}
	return out, nil
}

// ExplainContext profiles one batch on a fresh session (the one-shot
// counterpart of Processor.MultiQueryContext).
func (p *Processor) ExplainContext(ctx context.Context, queries []Query) (*Explain, error) {
	return p.NewSession().ExplainAllContext(ctx, queries)
}
