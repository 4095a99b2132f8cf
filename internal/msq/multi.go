package msq

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// queryState is the per-query bookkeeping that persists across incremental
// multi-query calls: the (partial) answer list and the set of pages whose
// items have already been tested for this query. Together they are the
// "internal buffer" of Figure 4 (restore_from_buffer / buffer_answers).
type queryState struct {
	q       Query
	answers *query.AnswerList
	// pq is the engine's prepared handle for this query, created once when
	// the query first enters the session. Pivot-based engines pay their
	// query-to-pivot distances here, so every later page probe (plans,
	// relevance checks, bootstrap bounds) across every incremental call
	// reuses them for free.
	pq engine.PreparedQuery
	// mu guards answers while the concurrent pipeline's sharded merge
	// workers feed per-page results into the list (one shard — and hence
	// one worker — per query, but the lock keeps the ownership explicit
	// and race-detector-checkable). The sequential path never contends.
	mu        sync.Mutex
	processed map[store.PageID]struct{}
	done      bool
	// bound is an a-priori upper bound on the final query distance,
	// derived from MAXDIST over a data page holding enough items (see
	// Session.bootstrap). It lets a k-NN query participate in page
	// relevance filtering and distance avoidance before any of its
	// object distances have been calculated. +Inf when unknown.
	bound float64
	// q32 caches the query vector rounded to float32 for the f32 row
	// kernels (ToF32 allocates; the rounding must match the block's
	// DeriveF32 for the documented error bound, and it does — both are
	// plain float32 conversions).
	q32 []float32
	// qfilter caches the quantized lower-bound filter for this query on
	// grid filterGrid, built on the first quant-layout page and rebuilt
	// if a page arrives with a different grid. filterSet distinguishes
	// "not built yet" from "built nil" (metric without code-level
	// bounds), so unsupported metrics are probed once, not per page.
	qfilter    *vec.QuantFilter
	filterGrid *vec.QuantGrid
	filterSet  bool
}

// f32 returns the query vector rounded to float32, cached after first use.
func (st *queryState) f32() []float32 {
	if st.q32 == nil {
		st.q32 = vec.ToF32(st.q.Vec)
	}
	return st.q32
}

// filter returns the query's quantized lower-bound filter for grid g (nil
// when the metric supports no code-level bound; a nil filter rejects
// nothing). Callers must hold the session's call lock or the pipeline's
// page barrier — the cache is not otherwise synchronized.
func (st *queryState) filter(m vec.Metric, g *vec.QuantGrid) *vec.QuantFilter {
	if !st.filterSet || st.filterGrid != g {
		st.qfilter = vec.NewQuantFilter(m, g, st.q.Vec)
		st.filterGrid = g
		st.filterSet = true
	}
	return st.qfilter
}

// queryDist is the effective pruning distance: the adaptive answer-list
// distance, capped by the a-priori bound. Both are upper bounds on the
// final query distance, so the minimum is a safe pruning threshold.
func (st *queryState) queryDist() float64 {
	if qd := st.answers.QueryDist(); qd < st.bound {
		return qd
	}
	return st.bound
}

// Session holds buffered (partial) answers between incremental multi-query
// calls. A session is bound to one processor. It is safe for concurrent
// use: calls are serialized by an internal mutex, because the paper's
// incremental semantics (each call builds on the buffered answers of the
// previous one) are inherently ordered. Parallelism happens *inside* a
// call when the processor's Concurrency is above 1.
type Session struct {
	proc *Processor
	// mu serializes top-level calls on the session. The pipeline's worker
	// goroutines never take it; they synchronize through per-query state
	// locks and the page barrier (see pipeline.go).
	mu     sync.Mutex
	states map[uint64]*queryState
	// pairDist caches inter-query distances ("QObjDists") so that each
	// pair is calculated at most once per session, keeping the matrix
	// overhead at m(m-1)/2 for a block of m queries even under
	// incremental evaluation.
	pairDist map[pairKey]float64
	// explain, when non-nil, collects per-query attribution and phase
	// times for the duration of one ExplainAllContext call (set and
	// cleared under mu; the pipeline's workers only read it).
	explain *explainState
}

// pairKey identifies an unordered query pair.
type pairKey struct{ lo, hi uint64 }

// NewSession starts an empty multi-query session.
func (p *Processor) NewSession() *Session {
	return &Session{
		proc:     p,
		states:   make(map[uint64]*queryState),
		pairDist: make(map[pairKey]float64),
	}
}

// state returns the buffered state for q, creating it on first sight and
// rejecting ID reuse with a different query object or type.
func (s *Session) state(q Query) (*queryState, error) {
	if st, ok := s.states[q.ID]; ok {
		if !st.q.Vec.Equal(q.Vec) || st.q.Type != q.Type {
			return nil, fmt.Errorf("msq: query ID %d reused with a different object or type", q.ID)
		}
		return st, nil
	}
	st := &queryState{
		q:         q,
		answers:   query.NewAnswerList(q.Type),
		pq:        s.proc.eng.Prepare(q.Vec),
		processed: make(map[store.PageID]struct{}),
		bound:     math.Inf(1),
	}
	s.states[q.ID] = st
	return st, nil
}

// MultiQuery evaluates a multiple similarity query per Definition 4 and the
// algorithm of Figure 4. On return, the answers for queries[0] are complete
// (A1 = similarity_query(Q1, T1)); the answers for the remaining queries
// are correct subsets of their full results (A_i ⊆ similarity_query(Q_i,
// T_i)), collected opportunistically from the pages loaded for Q1 and
// buffered in the session for later calls.
//
// The returned answer lists are aligned with queries and owned by the
// session: they remain live and may grow in subsequent calls.
func (s *Session) MultiQuery(queries []Query) ([]*query.AnswerList, Stats, error) {
	return s.MultiQueryContext(context.Background(), queries)
}

// MultiQueryContext is MultiQuery with cancellation: the page loop checks
// ctx once per page and aborts with ctx's error when it is canceled or past
// its deadline. Buffered partial answers collected before the abort stay in
// the session and are reused by later calls.
func (s *Session) MultiQueryContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.proc.tracer
	traced := tr.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
	}
	// Accounting starts before prepare so the pivot distances paid by
	// Engine.Prepare for queries entering the session are charged to this
	// call's PivotDistCalcs.
	acct := s.beginAccounting()
	states, results, err := s.prepare(queries)
	if err != nil {
		return nil, Stats{}, err
	}
	if states[0].done {
		// The first query was completed by an earlier call; its answers
		// come straight from the buffer.
		if traced {
			tr.RecordQuery("multi", len(queries), time.Since(begin), 0, 0, 0)
		}
		var st Stats
		acct.finish(&st)
		return results, st, nil
	}

	var stats Stats

	// Inter-query distance matrix for the avoidance lemmas. Computing it
	// costs m(m-1)/2 distance calculations — the initialization overhead
	// that is quadratic in m (§5.2, §6.4).
	matrix := s.queryDistMatrix(queries, &stats)
	pos := identityPositions(len(states))

	err = s.run(ctx, states, matrix, pos, &stats)
	stats.Queries = 1
	acct.finish(&stats)
	if traced {
		tr.RecordQuery("multi", len(queries), time.Since(begin), stats.PagesRead, stats.DistCalcs, stats.Avoided)
	}
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// prepare validates the batch and restores (or creates) the per-query
// buffered states.
func (s *Session) prepare(queries []Query) ([]*queryState, []*query.AnswerList, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("msq: empty multiple similarity query")
	}
	seen := make(map[uint64]bool, len(queries))
	states := make([]*queryState, len(queries))
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, nil, err
		}
		if seen[q.ID] {
			return nil, nil, fmt.Errorf("msq: query ID %d appears twice in one call", q.ID)
		}
		seen[q.ID] = true
		st, err := s.state(q) // restore_from_buffer
		if err != nil {
			return nil, nil, err
		}
		states[i] = st
	}
	results := make([]*query.AnswerList, len(queries))
	for i, st := range states {
		results[i] = st.answers
	}
	return states, results, nil
}

// accounting snapshots the I/O and distance counters so a call can report
// its own deltas.
type accounting struct {
	s             *Session
	ioBefore      store.IOStats
	distBefore    int64
	abandonBefore int64
	pivotBefore   int64
}

func (s *Session) beginAccounting() accounting {
	a := accounting{
		s:             s,
		ioBefore:      ioSnapshot(s.proc.eng.Pager()),
		distBefore:    s.proc.metric.Count(),
		abandonBefore: s.proc.metric.Abandoned(),
	}
	if pc, ok := s.proc.eng.(engine.PivotCoster); ok {
		a.pivotBefore = pc.PivotDistCalcs()
	}
	return a
}

func (a accounting) finish(stats *Stats) {
	stats.PagesRead = a.s.proc.eng.Pager().Disk().Stats().Reads - a.ioBefore.Reads
	stats.DistCalcs = a.s.proc.metric.Count() - a.distBefore - stats.MatrixDistCalcs
	stats.PartialAbandoned = a.s.proc.metric.Abandoned() - a.abandonBefore
	if pc, ok := a.s.proc.eng.(engine.PivotCoster); ok {
		stats.PivotDistCalcs = pc.PivotDistCalcs() - a.pivotBefore
	}
}

// identityPositions returns [0, 1, ..., n-1].
func identityPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// run executes one multiple-similarity-query pass: it completes states[0]
// and opportunistically collects partial answers for the rest. matrix is
// indexed by the global positions in pos (pos[i] is the matrix row of
// states[i]), so MultiQueryAll can share one matrix across all its passes.
func (s *Session) run(ctx context.Context, states []*queryState, matrix [][]float64, pos []int, stats *Stats) error {
	first := states[0]
	// sc is the page pass scratch, pre-sized so no observation mode of the
	// loop allocates in steady state; the pipeline adopts it as worker 0's.
	sc := newPageScratch(len(states))

	// Bootstrap: a k-NN query that has no answers yet cannot exclude any
	// page (its query distance is infinite), so sharing Q1's pages with
	// it would process *every* page for it. Definition 4 only requires
	// partial answers for the non-first queries, so before the page loop
	// each unbounded k-NN query receives an a-priori bound: MAXDIST to
	// any single data page holding at least k items upper-bounds its
	// k-NN distance, at zero I/O and zero object-distance cost. On
	// engines without geometric knowledge (the scan) the bound stays
	// +Inf, which is fine — a scan processes every page for every query
	// by design.
	s.bootstrap(states)
	if err := s.seedFirstPages(states, pos, stats, sc); err != nil {
		return err
	}

	// determine_relevant_data_pages: the plan covers (at least) every
	// page relevant for Q1, in optimal order. Buffered partial answers
	// and the a-priori bound give Q1 a head start on its query distance.
	planStart := s.clock()
	plan := first.pq.Plan(first.queryDist())
	s.observeSince(obs.PhasePlan, planStart)

	if width := s.proc.Concurrency(); width > 1 {
		if err := s.runPipeline(ctx, plan, states, matrix, pos, stats, width, sc); err != nil {
			return err
		}
		first.done = true
		return nil
	}

	// active caches, per page, which queries still need the page.
	active := make([]*queryState, 0, len(states))
	activePos := make([]int, 0, len(states))

	for _, ref := range plan {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("msq: multiple query: %w", err)
		}
		if ref.MinDist > first.queryDist() {
			break // prune_pages for Q1; later refs are even farther
		}
		if _, ok := first.processed[ref.ID]; ok {
			continue // already examined for Q1 in an earlier call
		}

		active, activePos = s.decideActive(ref.ID, states, pos, active, activePos)
		page, err := s.readPage(ref.ID)
		if err != nil {
			return fmt.Errorf("msq: multiple query: %w", err)
		}
		s.processPage(page, active, activePos, matrix, stats, sc)
		markProcessed(ref.ID, active)
	}

	first.done = true // A1 is now complete; buffer_answers is implicit.
	return nil
}

// markProcessed records that pid has been examined for every active query.
func markProcessed(pid store.PageID, active []*queryState) {
	for _, st := range active {
		st.processed[pid] = struct{}{}
	}
}

// decideActive computes which queries still need the page: not finished, not
// already processed for the page, and (for non-first queries) not excludable
// by the engine's lower bound against the query's current pruning distance.
// Both the sequential loop and the concurrent pipeline call it at the same
// point — after all earlier pages are fully merged — so the decisions, and
// hence page visits, are identical regardless of the pipeline width.
func (s *Session) decideActive(pid store.PageID, states []*queryState, pos []int, active []*queryState, activePos []int) ([]*queryState, []int) {
	active = active[:0]
	activePos = activePos[:0]
	for i, st := range states {
		if st.done {
			continue
		}
		if _, ok := st.processed[pid]; ok {
			continue
		}
		if i > 0 && st.pq.MinDist(pid) > st.queryDist() {
			continue
		}
		active = append(active, st)
		activePos = append(activePos, pos[i])
	}
	return active, activePos
}

// bootstrap computes, for every query whose effective query distance is
// still unbounded, the a-priori bound: the minimum over the data pages
// holding at least Cardinality items of MAXDIST(query, page MBR). Every
// item on such a page is within MAXDIST, so the final k-NN distance cannot
// exceed it. The computation uses only MBR geometry — no I/O and no object
// distance calculations.
func (s *Session) bootstrap(states []*queryState) {
	eng := s.proc.eng
	nPages := eng.NumPages()
	for _, st := range states {
		if st.done || !st.q.Type.Bounded() || !math.IsInf(st.queryDist(), 1) {
			continue
		}
		k := st.q.Type.Cardinality
		best := math.Inf(1)
		for pid := 0; pid < nPages; pid++ {
			p := store.PageID(pid)
			if eng.PageLen(p) < k {
				continue
			}
			if d := st.pq.MaxDist(p); d < best {
				best = d
			}
		}
		st.bound = best
	}
}

// seedFirstPages tightens the bound of each new bounded query further by
// processing the single unprocessed page nearest to it (by lower bound):
// that page's true k-th distance is typically very close to the final k-NN
// distance, so subsequent page sharing for the query admits few superfluous
// pages. Only queries whose answer list is still unfilled are seeded, and
// only on engines with geometric page knowledge (an uninformative engine
// such as the scan would always seed page 0 for everyone). The seed page
// is an ordinary page pass with one active query and no matrix, so its
// read, evaluation and attribution are observed like any other page.
func (s *Session) seedFirstPages(states []*queryState, pos []int, stats *Stats, sc *pageScratch) error {
	eng := s.proc.eng
	nPages := eng.NumPages()
	for idx, st := range states {
		if idx == 0 || st.done || st.answers.Full() || !st.q.Type.Bounded() {
			continue
		}
		best := store.InvalidPage
		bestD := math.Inf(1)
		informative := false
		for pid := 0; pid < nPages; pid++ {
			p := store.PageID(pid)
			if _, ok := st.processed[p]; ok {
				continue
			}
			d := st.pq.MinDist(p)
			if d > 0 {
				informative = true
			}
			if d < bestD {
				best, bestD = p, d
			}
		}
		if !informative || best == store.InvalidPage {
			continue
		}
		page, err := s.readPage(best)
		if err != nil {
			return fmt.Errorf("msq: seeding query %d: %w", st.q.ID, err)
		}
		active := states[idx : idx+1]
		s.processPage(page, active, pos[idx:idx+1], nil, stats, sc)
		markProcessed(best, active)
	}
	return nil
}

// queryDistMatrix computes dist(Q_i, Q_j) for all pairs. Row i is indexed
// by query position j. With avoidance disabled, or for a single query, no
// matrix is needed: a nil matrix is what switches avoidance off in the
// page pass.
func (s *Session) queryDistMatrix(queries []Query, stats *Stats) [][]float64 {
	defer s.observeSince(obs.PhaseMatrix, s.clock())
	m := len(queries)
	if m < 2 || s.proc.opts.Avoidance == AvoidOff {
		return nil
	}
	matrix := make([][]float64, m)
	for i := range matrix {
		matrix[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := s.pairDistance(queries[i], queries[j], stats)
			matrix[i][j] = d
			matrix[j][i] = d
		}
	}
	return matrix
}

// pairDistance returns dist(Q_i, Q_j), computing and caching it on first
// use and charging the calculation to the matrix overhead.
func (s *Session) pairDistance(qi, qj Query, stats *Stats) float64 {
	k := pairKey{lo: qi.ID, hi: qj.ID}
	if k.lo > k.hi {
		k.lo, k.hi = k.hi, k.lo
	}
	if d, ok := s.pairDist[k]; ok {
		return d
	}
	d := s.proc.metric.Distance(qi.Vec, qj.Vec)
	s.pairDist[k] = d
	stats.MatrixDistCalcs++
	return d
}

// clock reads the time only when the call is observed — by a tracer or by
// EXPLAIN — and returns the zero time otherwise, so an unobserved call pays
// one branch per phase boundary and no clock reads. Phases are timed at
// page (pipeline: chunk) grain; no clock is read per item or per pair.
func (s *Session) clock() time.Time {
	if s.explain == nil && !s.proc.tracer.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// observeSince charges the time since start, taken from clock, to phase p
// in the tracer and the EXPLAIN state; a zero start (unobserved) is a no-op.
func (s *Session) observeSince(p obs.Phase, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	s.proc.tracer.Observe(p, d)
	if ex := s.explain; ex != nil {
		ex.observe(p, d)
	}
}

// readPage fetches a data page through the engine, charging the wait to
// PhasePageWait.
func (s *Session) readPage(pid store.PageID) (*store.Page, error) {
	start := s.clock()
	page, err := s.proc.eng.ReadPage(pid)
	s.observeSince(obs.PhasePageWait, start)
	return page, err
}

// knownDist records a distance already calculated from the current database
// object to the query at position idx ("AvoidingDists" in Figure 4). When
// the calculation was abandoned early by the bounded kernel, d is only a
// lower bound on the true distance: sound for Lemma 1 (which needs
// dist(O,Qj) to be large), and incapable of firing Lemma 2 — not by an
// exactness flag (a data-dependent branch that mispredicts badly in
// avoidable's probe loop when abandoned and exact entries interleave) but
// by the abandonLimit invariant: an abandoned d strictly exceeds
// dist(Q_j, Q_i) + QueryDist(Q_i) for every query i that can still probe
// the entry with a finite pruning distance, and Lemma 2 would need d
// *below* dist(Q_j, Q_i) - QueryDist(Q_i). A pruning distance becomes
// finite only at its own query's turn — after that query's probes — and
// that transition recomputes the raises, so the invariant covers every
// probe. idx is an int32 so the entry packs into 16 bytes; avoidable scans
// these linearly, so density matters.
type knownDist struct {
	d   float64 // exact distance, or the abandoned partial lower bound
	idx int32
}

// pageScratch bundles one page pass's reusable buffers. Every field is
// sized for the full batch and sliced down to the page's active set;
// contents are clobbered on each page. The sequential loop owns one; the
// pipeline keeps one per worker, and worker 0's also holds the page-level
// inputs (qds, raise, qvecs, q32, filters) that the coordinator fills at
// the page barrier and the workers only read.
type pageScratch struct {
	known   []knownDist
	qds     []float64
	raise   []float64
	qvecs   []vec.Vector
	q32     [][]float32
	rowD    []float64
	rowW    []bool
	filters []*vec.QuantFilter
}

func newPageScratch(n int) *pageScratch {
	return &pageScratch{
		known:   make([]knownDist, 0, n),
		qds:     make([]float64, n),
		raise:   make([]float64, n),
		qvecs:   make([]vec.Vector, n),
		q32:     make([][]float32, n),
		rowD:    make([]float64, n),
		rowW:    make([]bool, n),
		filters: make([]*vec.QuantFilter, n),
	}
}

// pagePass is one page's evaluation against its active set: the inputs
// every item range of the page shares, fixed when the page starts.
type pagePass struct {
	page      *store.Page
	active    []*queryState
	activeIdx []int
	// matrix is the query-distance matrix; nil turns avoidance off.
	matrix [][]float64
	// qds holds the active queries' pruning distances. With live merging
	// they mirror the answer lists exactly: a pruning distance changes only
	// when the query's own Consider accepts an item (st.bound is fixed
	// during the page loop), and every accept refreshes the mirror. In the
	// pipeline they are the page-barrier snapshot and stay fixed.
	qds []float64
	// raise caches the Lemma-1 horizon bound of abandonLimit per query.
	raise []float64
	// rows selects the blocked row kernels (f32: over the float32
	// sibling); qvecs or q32 are their query inputs.
	rows, f32 bool
	qvecs     []vec.Vector
	q32       [][]float32
	filters   []*vec.QuantFilter
	// ex, when non-nil, receives per-query attribution.
	ex *explainState
}

// newPass gathers a page pass's inputs from the active queries' current
// state. The sequential loop calls it when the page starts; the pipeline
// calls it at the page barrier, which makes every input a snapshot.
func (s *Session) newPass(page *store.Page, active []*queryState, activeIdx []int, matrix [][]float64, sc *pageScratch) pagePass {
	n := len(active)
	pp := pagePass{page: page, active: active, activeIdx: activeIdx, matrix: matrix, qds: sc.qds[:n], ex: s.explain}
	for a, st := range active {
		pp.qds[a] = st.queryDist()
	}
	if matrix != nil {
		pp.raise = lemma1Raises(activeIdx, matrix, pp.qds, sc.raise)
	}
	pp.rows, pp.f32 = s.rowPath(page, matrix != nil, n)
	switch {
	case pp.rows && pp.f32:
		pp.q32 = sc.q32[:n]
		for a, st := range active {
			pp.q32[a] = st.f32()
		}
	case pp.rows:
		pp.qvecs = sc.qvecs[:n]
		for a, st := range active {
			pp.qvecs[a] = st.q.Vec
		}
	}
	pp.filters = s.quantFilters(page, active, sc.filters)
	return pp
}

// rowPath reports whether this page runs through the blocked row kernels
// under the configured layout, and whether over the float32 sibling. Rows
// require a columnar block and no avoidance interleaving: with avoidance
// off, a query's pruning distance within one item can only have been
// tightened by earlier items (each query's mirror is updated solely by its
// own Consider accepts), so passing the live pruning distances as the row
// limits reproduces the per-pair loop's limits — and with them its
// distances, within flags, abandon points and Consider sequence — exactly.
// Under avoidance the per-pair loop couples the queries of one item
// through the known list, which has no row equivalent; those pages keep
// the per-pair path, which reads the same block-backed float64s anyway.
// Batches narrower than one lane group (m < 4) also keep the per-pair
// path: the grouped lanes of the row kernels never engage there, so the
// row loop would only add per-item bookkeeping on top of the same scalar
// kernel calls.
func (s *Session) rowPath(page *store.Page, avoiding bool, m int) (rows, f32 bool) {
	b := page.Cols
	if b == nil || avoiding || b.N != len(page.Items) || m < 4 {
		return false, false
	}
	switch s.proc.opts.Layout {
	case LayoutSoA:
		return true, false
	case LayoutF32:
		if b.F32 != nil && s.proc.rows.SupportsF32() {
			return true, true
		}
		return true, false // no f32 sibling on this page: exact rows
	}
	return false, false
}

// quantFilters fills dst with each active query's code-level filter for
// the page's grid, or returns nil when the layout or the page does not
// support quantized screening. Entries may be nil (metric without a
// code-level bound); a nil filter rejects nothing.
func (s *Session) quantFilters(page *store.Page, active []*queryState, dst []*vec.QuantFilter) []*vec.QuantFilter {
	if s.proc.opts.Layout != LayoutQuant {
		return nil
	}
	b := page.Cols
	if b == nil || b.Codes == nil || b.Grid == nil {
		return nil
	}
	dst = dst[:len(active)]
	for i, st := range active {
		dst[i] = st.filter(s.proc.metric, b.Grid)
	}
	return dst
}

// passCounts are the counter deltas of one evaluated item range.
type passCounts struct {
	calcs, abandoned, tries, avoided, filtered int64
}

// settle charges an evaluated range's counts to the counting metric and to
// the call's Stats.
func (s *Session) settle(c passCounts, stats *Stats) {
	s.proc.metric.AddCalls(c.calcs, c.abandoned)
	s.proc.metric.AddFiltered(c.filtered)
	stats.AvoidTries += c.tries
	stats.Avoided += c.avoided
	stats.QuantFiltered += c.filtered
}

// visit counts one page visit per active query.
func (s *Session) visit(activeIdx []int, stats *Stats) {
	stats.PageVisits += int64(len(activeIdx))
	if ex := s.explain; ex != nil {
		for _, p := range activeIdx {
			ex.prof[p].pagesVisited.Add(1)
		}
	}
}

// processPage is the sequential page pass: the page's whole item range is
// evaluated as one chunk with live merging, and timed as a whole into
// PhaseKernel (avoidance, kernel and merge together).
func (s *Session) processPage(page *store.Page, active []*queryState, activeIdx []int, matrix [][]float64, stats *Stats, sc *pageScratch) {
	s.visit(activeIdx, stats)
	pp := s.newPass(page, active, activeIdx, matrix, sc)
	start := s.clock()
	c := s.evalItems(&pp, 0, len(page.Items), nil, sc)
	s.observeSince(obs.PhaseKernel, start)
	s.settle(c, stats)
}

// evalItems is the one page evaluator of Figure 4: it tests the items
// [lo, hi) of the pass's page against every active query, using the
// triangle inequality over already-known distances to avoid calculations
// where possible. Unavoidable calculations run through the bounded
// distance kernel, which abandons mid-vector as soon as the partial result
// proves the exact distance irrelevant. The abandonment limit is not the
// query's own pruning distance but the abandonLimit raise of it, so an
// abandoned calculation provably (a) could never have produced an answer
// (Consider would reject it) and (b) fires Lemma 1 — and withholds Lemma 2
// — for every later query on this item exactly where the exact distance
// would, leaving DistCalcs and Avoided untouched relative to full-distance
// evaluation. The partial result is appended to known like any other
// distance, so later probes see the same entry sequence either way.
//
// Results go one of two ways. With a nil out the merge is live: each
// within distance is offered to the answer list at once, the pruning
// distance mirror is refreshed on accept, and the Lemma-1 raises are lifted
// when a pruning distance turns finite (the sequential path). With a
// non-nil out — the pipeline's dists matrix, nItems × nActive — the
// distance of item it for active query a goes to out[it*nActive+a], or
// skippedDist when it was not fully computed, and the limits stay the
// page-barrier snapshot; the pipeline's sharded merge consumes out later.
//
// Distance calculations bypass the Counting wrapper: the loop calls the raw
// kernel and returns its counts for one settle per range. Pages take the
// blocked row path when rowPath holds (bit-identical for LayoutSoA).
// LayoutQuant screens each pair through the quantized lower-bound filter
// before the kernel: a rejected pair provably satisfies dist > qd, so it
// could not have been an answer; it is not appended to known (Lemma 2 over
// a lower bound is unsound) and is counted in QuantFiltered instead of
// DistCalcs. EXPLAIN attribution (pp.ex) is the only per-pair observation;
// no clock is read here.
func (s *Session) evalItems(pp *pagePass, lo, hi int, out []float64, sc *pageScratch) (c passCounts) {
	if pp.rows {
		return s.evalRows(pp, lo, hi, out, sc)
	}
	kernel := s.proc.metric.Kernel()
	items, filters, ex := pp.page.Items, pp.filters, pp.ex
	active, activeIdx, matrix, qds, raise := pp.active, pp.activeIdx, pp.matrix, pp.qds, pp.raise
	avoiding := matrix != nil
	known := sc.known
	var row []float64
	for it := lo; it < hi; it++ {
		item := &items[it]
		var codes []uint8
		if filters != nil {
			codes = pp.page.Cols.ItemCodes(it)
		}
		if out != nil {
			// Every slot starts skipped; only within distances overwrite,
			// which keeps the avoided, filtered and abandoned paths free
			// of stores.
			row = out[it*len(active) : (it+1)*len(active)]
			for a := range row {
				row[a] = skippedDist
			}
		}
		known = known[:0]
		for a, st := range active {
			pos := activeIdx[a]
			qd := qds[a]
			limit := qd
			if avoiding {
				av, byL1, n := s.avoidable(qd, matrix[pos], known)
				c.tries += n
				if ex != nil {
					ex.prof[pos].attributeProbe(av, byL1, n)
				}
				if av {
					c.avoided++
					continue
				}
				limit = abandonLimit(qd, raise[a], len(known))
			}
			if filters != nil && filters[a].Exceeds(codes, qd) {
				c.filtered++
				if ex != nil {
					ex.prof[pos].filtered.Add(1)
				}
				continue
			}
			d, within := kernel.DistanceWithin(st.q.Vec, item.Vec, limit)
			c.calcs++
			if ex != nil {
				ex.prof[pos].attributeCalc(within)
			}
			if avoiding {
				known = append(known, knownDist{d: d, idx: int32(pos)})
			}
			if !within {
				c.abandoned++
			} else if out != nil {
				row[a] = d
			} else if st.answers.Consider(item.ID, d) {
				wasInf := math.IsInf(qd, 1)
				qds[a] = st.queryDist()
				// raise was computed from the page-start qds. Pruning
				// distances only shrink during the page, which leaves it too
				// high — still at or above every live horizon (the identity
				// requirement), merely abandoning less. The one event that
				// would make it too low is a pruning distance turning finite
				// (a k-NN list filling up mid-page): that query's horizon
				// springs into existence, so every raise is lifted to cover
				// it — an O(m) overapproximation, at most once per query.
				if avoiding && wasInf && !math.IsInf(qds[a], 1) {
					mrow := matrix[pos]
					for j, p := range activeIdx {
						if t := mrow[p] + qds[a]; t > raise[j] {
							raise[j] = t
						}
					}
				}
			}
		}
	}
	return c
}

// evalRows is evalItems' blocked (SoA) path: one row-kernel call per item
// evaluates the whole active set against the item's block row, so the row
// — just loaded into cache — is reused m times and the kernel dispatch is
// devirtualized once per page instead of once per pair. Only reached when
// rowPath holds, under which the results are bit-identical to the per-pair
// path (see rowPath); with f32 the distances instead carry the block's
// documented input-rounding error and the caller has opted into that via
// LayoutF32. The qds limits are live or snapshot exactly as in evalItems.
func (s *Session) evalRows(pp *pagePass, lo, hi int, out []float64, sc *pageScratch) (c passCounts) {
	n := len(pp.active)
	b, rows, qds := pp.page.Cols, s.proc.rows, pp.qds
	dOut, wOut := sc.rowD[:n], sc.rowW[:n]
	for it := lo; it < hi; it++ {
		if out != nil {
			dOut = out[it*n : (it+1)*n]
		}
		var ab int
		if pp.f32 {
			ab = rows.RowWithinF32(pp.q32, b, it, qds, dOut, wOut)
		} else {
			ab = rows.RowWithin(pp.qvecs, b, it, qds, dOut, wOut)
		}
		c.calcs += int64(n)
		c.abandoned += int64(ab)
		if ex := pp.ex; ex != nil {
			for a, w := range wOut {
				ex.prof[pp.activeIdx[a]].attributeCalc(w)
			}
		}
		if out != nil {
			for a, w := range wOut {
				if !w {
					dOut[a] = skippedDist
				}
			}
			continue
		}
		if ab == n {
			continue // no lane within: nothing to Consider
		}
		id := pp.page.Items[it].ID
		for a, st := range pp.active {
			if wOut[a] && st.answers.Consider(id, dOut[a]) {
				qds[a] = st.queryDist()
			}
		}
	}
	return c
}

// maxAvoidProbes caps how many known distances one avoidance decision
// consults. Unbounded probing is quadratic in the block size m and
// dominates wall-clock for m in the thousands, while the probability that
// a probe succeeds after many failures is low; the cap keeps the vast
// majority of avoided calculations at linear cost. (The paper's own
// quadratic-in-m degradation at s=16 stems mainly from the query-distance
// matrix, which is not affected by this cap.)
const maxAvoidProbes = 8

// avoidable implements Definition 5 via Lemmas 1 and 2: the calculation of
// dist(Q_i, O) is avoidable if some already-known dist(Q_j, O) proves
// dist(Q_i, O) > QueryDist(Q_i). row is Q_i's query-distance matrix row.
// Strict inequalities are used so that boundary answers (dist exactly
// equal to the query distance) are never lost.
//
//	Lemma 1: dist(O,Qj) - dist(Qi,Qj) > QueryDist(Qi)  =>  avoid
//	Lemma 2: dist(Qi,Qj) - dist(O,Qj) > QueryDist(Qi)  =>  avoid
//
// It also reports which lemma fired (Lemma 1 is tested first, so under
// AvoidBoth a pair satisfying both is Lemma 1's) and how many probes the
// decision spent.
func (s *Session) avoidable(qd float64, row []float64, known []knownDist) (avoided, byLemma1 bool, tries int64) {
	// A lemma switched off by the mode gets an infinite threshold, which
	// no finite difference exceeds: the probe loop then needs no per-probe
	// mode test.
	q1, q2 := qd, qd
	switch s.proc.opts.Avoidance {
	case AvoidLemma1:
		q2 = math.Inf(1)
	case AvoidLemma2:
		q1 = math.Inf(1)
	}
	if len(known) > maxAvoidProbes {
		known = known[:maxAvoidProbes]
	}
	for i, k := range known {
		mij := row[k.idx]
		if k.d-mij > q1 || mij-k.d > q2 {
			return true, k.d-mij > q1, int64(i + 1)
		}
	}
	return false, false, int64(len(known))
}

// abandonLimit returns the early-abandonment limit for the distance between
// the current item and a query with pruning distance qd: qd, raised so that
// an abandoned calculation can never change a later avoidance decision for
// the same item. A known distance d(O, Q_a) influences query i via Lemma 1
// only when it exceeds the horizon dist(Q_a, Q_i) + QueryDist(Q_i), and via
// Lemma 2 only when it falls below dist(Q_a, Q_i) - QueryDist(Q_i);
// abandoning strictly above every probing query's Lemma-1 horizon therefore
// guarantees the partial lower bound fires Lemma 1 exactly where the exact
// distance would, and — since the Lemma-1 horizon is at or above the
// Lemma-2 one whenever QueryDist(Q_i) >= 0 — that Lemma 2 can never fire on
// the lower bound where the exact distance would not (neither can fire at
// all above the horizon). Any limit at or above the horizons preserves this — a
// larger limit merely abandons less — so raise is the cached per-page
// suffix maximum from lemma1Raises rather than an exact per-pair O(m)
// loop, which would itself dominate the per-pair bookkeeping. The raise is
// skipped when the known entry can never be probed (the list already holds
// maxAvoidProbes entries).
func abandonLimit(qd, raise float64, knownLen int) float64 {
	if knownLen >= maxAvoidProbes {
		return qd
	}
	if raise > qd {
		return raise
	}
	return qd
}

// lemma1Raises fills scratch with, per active position a, the maximum
// Lemma-1 horizon dist(Q_a, Q_i) + qds[i] over the *later* positions i > a
// — the only queries that can probe a known entry appended at position a,
// since the known list is per item and scanned in active order. Infinite
// pruning distances contribute no horizon (no lemma can fire against an
// infinite query distance); with no later finite-qd query the raise is
// -Inf and abandonLimit falls back to the query's own pruning distance.
func lemma1Raises(activeIdx []int, matrix [][]float64, qds []float64, scratch []float64) []float64 {
	raise := scratch[:len(activeIdx)]
	for a, pos := range activeIdx {
		row := matrix[pos]
		m := math.Inf(-1)
		for i := a + 1; i < len(activeIdx); i++ {
			if qd := qds[i]; !math.IsInf(qd, 1) {
				if t := row[activeIdx[i]] + qd; t > m {
					m = t
				}
			}
		}
		raise[a] = m
	}
	return raise
}

// MultiQueryAll evaluates the whole batch to completion by running the
// multiple similarity query for every not-yet-finished suffix — the
// evaluation the paper describes: "to determine the complete answers for
// the other query objects we have to call the method repeatedly for
// [Q2,...,Qm], [Q3,...,Qm], ..., [Qm]". The session's page bookkeeping
// guarantees no page is processed twice for the same query, and the
// query-distance matrix is computed once for the whole batch (calling
// MultiQuery on each suffix instead would rebuild an O(m²) matrix per
// suffix — cubic in m overall).
func (s *Session) MultiQueryAll(queries []Query) ([]*query.AnswerList, Stats, error) {
	return s.MultiQueryAllContext(context.Background(), queries)
}

// MultiQueryAllContext is MultiQueryAll with cancellation: every pass's page
// loop checks ctx once per page and aborts with ctx's error when it is
// canceled or past its deadline. Answers completed (or partially collected)
// before the abort stay buffered in the session.
func (s *Session) MultiQueryAllContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.multiQueryAllLocked(ctx, queries)
}

// multiQueryAllLocked is MultiQueryAllContext's body; the caller holds
// s.mu (ExplainAllContext shares it after attaching the explain state).
func (s *Session) multiQueryAllLocked(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	tr := s.proc.tracer
	traced := tr.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
	}
	// As in MultiQueryContext, accounting brackets prepare so Prepare-time
	// pivot distances land in this call's PivotDistCalcs.
	acct := s.beginAccounting()
	states, results, err := s.prepare(queries)
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	matrix := s.queryDistMatrix(queries, &stats)
	pos := identityPositions(len(states))

	record := func() {
		if traced {
			tr.RecordQuery("multi_all", len(queries), time.Since(begin), stats.PagesRead, stats.DistCalcs, stats.Avoided)
		}
	}
	for i := range states {
		if states[i].done {
			continue
		}
		if err := s.run(ctx, states[i:], matrix, pos[i:], &stats); err != nil {
			acct.finish(&stats)
			record()
			return nil, stats, err
		}
		stats.Queries++
	}
	acct.finish(&stats)
	record()
	return results, stats, nil
}

// MultiQuery is the convenience entry point for a one-shot batch: it runs a
// fresh session to completion and returns the complete answers for every
// query.
func (p *Processor) MultiQuery(queries []Query) ([]*query.AnswerList, Stats, error) {
	return p.NewSession().MultiQueryAll(queries)
}

// MultiQueryContext is MultiQuery with cancellation, running a fresh session
// to completion under ctx.
func (p *Processor) MultiQueryContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	return p.NewSession().MultiQueryAllContext(ctx, queries)
}
