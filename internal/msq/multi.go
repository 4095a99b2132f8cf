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

// pageScratch bundles one page pass's reusable buffers. Every field is
// sized for the full batch and sliced down to the page's active set;
// contents are clobbered on each page. The sequential loop owns one; the
// pipeline keeps one per worker, and worker 0's also holds the page-level
// inputs (qds, raise, qvecs) that the coordinator fills at the page
// barrier and the workers only read. und and spare are the sweep's
// double-buffered undecided lists (active indices).
type pageScratch struct {
	und   []int32
	spare []int32
	qds   []float64
	raise []float64
	qvecs []vec.Vector
	rowD  []float64
	rowW  []bool
}

func newPageScratch(n int) *pageScratch {
	return &pageScratch{
		und:   make([]int32, n),
		spare: make([]int32, n),
		qds:   make([]float64, n),
		raise: make([]float64, n),
		qvecs: make([]vec.Vector, n),
		rowD:  make([]float64, n),
		rowW:  make([]bool, n),
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
	// rows selects the blocked row kernels; qvecs are their query inputs.
	rows  bool
	qvecs []vec.Vector
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
	if pp.rows = rowPath(page, matrix != nil, n); pp.rows {
		pp.qvecs = sc.qvecs[:n]
		for a, st := range active {
			pp.qvecs[a] = st.q.Vec
		}
	}
	return pp
}

// rowPath reports whether this page runs through the blocked row kernels.
// The page alone decides: rows require a float64 block covering all its
// items — attached at build or open when the database's layout is soa, or
// decoded from a stored columnar dataset — and no avoidance interleaving.
// With avoidance off, a query's pruning distance within one item can only
// have been tightened by earlier items (each query's mirror is updated
// solely by its own Consider accepts), so passing the live pruning
// distances as the row limits reproduces evalItems' limits — and with
// them its distances, within flags, abandon points and Consider sequence —
// exactly. Under avoidance the sweep decides which queries of an item are
// computed at all, and each computed distance can avoid the ones after it,
// so the set is not known before the item starts; those pages keep the
// sweep, which reads the same block-backed float64s anyway. Batches
// narrower than one lane group (m < 4) also keep the sweep: the grouped
// lanes of the row kernels never engage there, so the row loop would only
// add per-item bookkeeping on top of the same scalar kernel calls.
func rowPath(page *store.Page, avoiding bool, m int) bool {
	b := page.Cols
	return b != nil && !avoiding && b.N == len(page.Items) && m >= 4
}

// passCounts are the counter deltas of one evaluated item range.
type passCounts struct {
	calcs, abandoned, tries, avoided int64
}

// settle charges an evaluated range's counts to the counting metric and to
// the call's Stats.
func (s *Session) settle(c passCounts, stats *Stats) {
	s.proc.metric.AddCalls(c.calcs, c.abandoned)
	stats.AvoidTries += c.tries
	stats.Avoided += c.avoided
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
// triangle inequality over already-computed distances to avoid
// calculations where possible.
//
// Avoidance runs as a column sweep per item. All active queries start
// undecided, in active order. The first undecided query is computed, and
// its distance d becomes the item's next sweep entry; while fewer than
// maxAvoidProbes entries exist, the entry is swept once over every query
// still undecided (sweep), reading the entry query's contiguous matrix
// row. A query the sweep proves irrelevant is avoided; the rest stay
// undecided for the next entry, and the next undecided query is computed.
// This makes exactly the probes a per-pair loop would make — each query is
// tested against the entries of the queries computed before it, in
// computation order, stopping at the first hit — and testing early is
// safe: a probe reads the tested query's pruning distance, which changes
// only through that query's own Consider, and the raises are read only
// when a query is computed. DistCalcs, AvoidTries, Avoided,
// PartialAbandoned, the Consider order and EXPLAIN attribution therefore
// match the per-pair formulation exactly. A nil matrix sweeps nothing,
// which covers avoidance-off and seed pages.
//
// Unavoidable calculations run through the bounded distance kernel, which
// abandons mid-vector as soon as the partial result proves the exact
// distance irrelevant. The abandonment limit is not the query's own
// pruning distance but the abandonLimit raise of it, so an abandoned
// calculation provably (a) could never have produced an answer (Consider
// would reject it) and (b) fires Lemma 1 — and withholds Lemma 2 — for
// every later query on this item exactly where the exact distance would,
// leaving DistCalcs and Avoided untouched relative to full-distance
// evaluation. The partial result is swept like any other entry.
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
// blocked row path when rowPath holds, bit-identical to this path. EXPLAIN
// attribution (pp.ex) is the only per-pair observation; no clock is read
// here.
func (s *Session) evalItems(pp *pagePass, lo, hi int, out []float64, sc *pageScratch) (c passCounts) {
	if pp.rows {
		return s.evalRows(pp, lo, hi, out, sc)
	}
	kernel := s.proc.metric.Kernel()
	items, ex := pp.page.Items, pp.ex
	active, activeIdx, matrix, qds, raise := pp.active, pp.activeIdx, pp.matrix, pp.qds, pp.raise
	avoiding := matrix != nil
	n := len(active)
	var row []float64
	for it := lo; it < hi; it++ {
		item := &items[it]
		if out != nil {
			// Every slot starts skipped; only within distances overwrite,
			// which keeps the avoided and abandoned paths free of stores.
			row = out[it*n : (it+1)*n]
			for a := range row {
				row[a] = skippedDist
			}
		}
		und, spare := sc.und[:n], sc.spare[:n]
		for a := range und {
			und[a] = int32(a)
		}
		// j counts the item's computed queries: the sweep entries so far.
		for j := 0; len(und) > 0; j++ {
			a := und[0]
			und = und[1:]
			st, pos, qd := active[a], activeIdx[a], qds[a]
			limit := qd
			if avoiding {
				limit = abandonLimit(qd, raise[a], j)
				if ex != nil {
					ex.prof[pos].attributeProbe(false, false, int64(min(j, maxAvoidProbes)))
				}
			}
			d, within := kernel.DistanceWithin(st.q.Vec, item.Vec, limit)
			c.calcs++
			if ex != nil {
				ex.prof[pos].attributeCalc(within)
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
					for k, p := range activeIdx {
						if t := mrow[p] + qds[a]; t > raise[k] {
							raise[k] = t
						}
					}
				}
			}
			if avoiding && j < maxAvoidProbes && len(und) > 0 {
				und, spare = s.sweep(pp, und, spare, d, matrix[pos], j, &c), und
			}
		}
	}
	return c
}

// sweep tests sweep entry j — the distance d from the current item to the
// query whose matrix row is mrow — against every undecided query b, by
// Definition 5 via Lemmas 1 and 2 (strict inequalities, so boundary
// answers are never lost):
//
//	Lemma 1: dist(O,Qj) - dist(Qb,Qj) > QueryDist(Qb)  =>  avoid
//	Lemma 2: dist(Qb,Qj) - dist(O,Qj) > QueryDist(Qb)  =>  avoid
//
// Each test is one probe. The queries that survive are written, in order,
// to spare by a branch-free compaction, which is returned as the new
// undecided list. Under AvoidBoth the two lemmas are one comparison,
// |d - M| > QueryDist; a single-lemma mode tests the signed difference.
// EXPLAIN charges an avoided query j+1 probes and the lemma that fired
// (Lemma 1 first, so a pair satisfying both is Lemma 1's).
func (s *Session) sweep(pp *pagePass, und, spare []int32, d float64, mrow []float64, j int, c *passCounts) []int32 {
	activeIdx, qds := pp.activeIdx, pp.qds
	kept := spare[:len(und)]
	k := 0
	if mode := s.proc.opts.Avoidance; mode == AvoidBoth {
		for _, b := range und {
			kept[k] = b
			if !(math.Abs(d-mrow[activeIdx[b]]) > qds[b]) {
				k++
			}
		}
	} else {
		sign := 1.0 // Lemma 1 only
		if mode == AvoidLemma2 {
			sign = -1
		}
		for _, b := range und {
			kept[k] = b
			if !(sign*(d-mrow[activeIdx[b]]) > qds[b]) {
				k++
			}
		}
	}
	kept = kept[:k]
	c.tries += int64(len(und))
	c.avoided += int64(len(und) - k)
	if ex := pp.ex; ex != nil && k < len(und) {
		i := 0
		for _, b := range und {
			if i < k && kept[i] == b {
				i++
				continue
			}
			pos := activeIdx[b]
			ex.prof[pos].attributeProbe(true, d-mrow[pos] > qds[b], int64(j+1))
		}
	}
	return kept
}

// evalRows is evalItems' blocked (SoA) path: one row-kernel call per item
// evaluates the whole active set against the item's block row, so the row
// — just loaded into cache — is reused m times and the kernel dispatch is
// devirtualized once per page instead of once per pair. Only reached when
// rowPath holds, under which the results are bit-identical to evalItems'
// scalar path (see rowPath). The qds limits are live or snapshot exactly as in
// evalItems.
func (s *Session) evalRows(pp *pagePass, lo, hi int, out []float64, sc *pageScratch) (c passCounts) {
	n := len(pp.active)
	b, rows, qds := pp.page.Cols, s.proc.rows, pp.qds
	dOut, wOut := sc.rowD[:n], sc.rowW[:n]
	for it := lo; it < hi; it++ {
		if out != nil {
			dOut = out[it*n : (it+1)*n]
		}
		ab := rows.RowWithin(pp.qvecs, b, it, qds, dOut, wOut)
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

// maxAvoidProbes caps how many sweep entries one item has: only the first
// maxAvoidProbes computed distances are swept, so one avoidance decision
// consults at most that many. Unbounded probing is quadratic in the block
// size m and dominates wall-clock for m in the thousands, while the
// probability that a probe succeeds after many failures is low; the cap keeps the vast
// majority of avoided calculations at linear cost. (The paper's own
// quadratic-in-m degradation at s=16 stems mainly from the query-distance
// matrix, which is not affected by this cap.)
const maxAvoidProbes = 8

// abandonLimit returns the early-abandonment limit for the distance between
// the current item and a query with pruning distance qd: qd, raised so that
// an abandoned calculation can never change a later avoidance decision for
// the same item. A sweep entry d(O, Q_a) influences query i via Lemma 1
// only when it exceeds the horizon dist(Q_a, Q_i) + QueryDist(Q_i), and via
// Lemma 2 only when it falls below dist(Q_a, Q_i) - QueryDist(Q_i);
// abandoning strictly above every probing query's Lemma-1 horizon therefore
// guarantees the partial lower bound fires Lemma 1 exactly where the exact
// distance would, and — since the Lemma-1 horizon is at or above the
// Lemma-2 one whenever QueryDist(Q_i) >= 0 — that Lemma 2 can never fire on
// the lower bound where the exact distance would not (neither can fire at
// all above the horizon). Any limit at or above the horizons preserves
// this — a larger limit merely abandons less — so raise is the cached
// per-page suffix maximum from lemma1Raises rather than an exact per-pair
// O(m) loop, which would itself dominate the per-pair bookkeeping. entries
// is the number of the item's distances computed before this one; the
// raise is skipped when the new distance is never swept (the item already
// has maxAvoidProbes entries).
func abandonLimit(qd, raise float64, entries int) float64 {
	if entries >= maxAvoidProbes {
		return qd
	}
	if raise > qd {
		return raise
	}
	return qd
}

// lemma1Raises fills scratch with, per active position a, the maximum
// Lemma-1 horizon dist(Q_a, Q_i) + qds[i] over the *later* positions i > a
// — the only queries a sweep entry computed at position a can be tested
// against, since the sweep computes an item's queries in active order and
// tests each entry only on the queries still undecided after it. Infinite
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
