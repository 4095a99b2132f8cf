// Package calib closes the advisor's feedback loop: for every executed
// batch it pairs the cost model's predicted EngineEstimate with the
// observed msq.Stats deltas, keeps a bounded ring of those samples plus
// per-engine EWMA residuals, and fits per-engine correction state online —
// multiplicative counter factors (geometric EWMAs of the observed/predicted
// ratios, clamped in log space so one pathological batch cannot poison the
// state) and fitted time-unit constants (ns per distance calculation from
// the kernel-phase wall time, ns per page read from the fetch-phase wall
// time, and a wall-time scale against the model's nominal total).
//
// The recorder is strictly observational: it never touches a counting
// metric, a pager, or an engine — Record consumes numbers the caller
// already has, and Calibrate/PredictWall are pure arithmetic over the
// recorded state. Corrections are never applied mid-batch: the residual a
// sample contributes is computed against the state as it stood *before*
// that sample is folded in (leave-one-out), which is also what makes the
// calibrated error an honest out-of-sample measurement rather than a fit
// to the batch being judged.
//
// Determinism: the recorder uses no randomness — the same sample sequence
// always produces the same state bit for bit. Config.Seed is provenance
// only: it names the seed the caller's *predictions* were derived under
// (intrinsic-dimension sampling), so a snapshot records which prediction
// stream the residuals belong to.
package calib

import (
	"math"
	"sort"
	"sync"
	"time"

	"metricdb/internal/cost"
)

// Defaults for Config's zero values.
const (
	DefaultRingSize   = 256
	DefaultAlpha      = 0.25
	DefaultMinSamples = 8
)

// factorClamp bounds one sample's |log(observed/predicted)| at log(1024):
// a single batch can move a factor by at most three orders of magnitude,
// so a degenerate observation (a zero counter, a warm-buffer fluke) bends
// the EWMA instead of breaking it.
var factorClamp = math.Log(1024)

// Config tunes a Recorder. The zero value selects the documented defaults.
type Config struct {
	// RingSize bounds the retained sample history (the residual ring
	// exposed by Snapshot). Zero selects DefaultRingSize.
	RingSize int `json:"ring_size"`
	// Alpha is the EWMA weight of one new sample in (0, 1]. Zero selects
	// DefaultAlpha.
	Alpha float64 `json:"alpha"`
	// MinSamples is the evidence floor: PredictWall returns 0 (no
	// prediction) for engines with fewer recorded samples, so consumers —
	// the admission release gate above all — fall back to their own
	// estimates instead of trusting two data points. Zero selects
	// DefaultMinSamples. Counter factors apply from the first sample;
	// they only rescale a ranking, they never gate a shed.
	MinSamples int `json:"min_samples"`
	// Seed is provenance: the seed the caller's predictions were sampled
	// under. The recorder itself is deterministic and uses no randomness.
	Seed int64 `json:"seed"`
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	return c
}

// Observed is the measured counterpart of one predicted EngineEstimate:
// the msq.Stats deltas of the executed batch plus its wall-time split.
type Observed struct {
	// DistCalcs, PivotDistCalcs and PagesRead are the batch's Stats deltas
	// in the cost model's own units.
	DistCalcs      int64 `json:"dist_calcs"`
	PivotDistCalcs int64 `json:"pivot_dist_calcs,omitempty"`
	PagesRead      int64 `json:"pages_read"`
	// KernelNs and FetchNs are the batch's kernel (whole-page evaluation,
	// avoidance checks included) and page-fetch phase wall times when the
	// run was profiled or traced; zero when unknown (the fitted unit
	// constants then simply do not update).
	KernelNs int64 `json:"kernel_ns,omitempty"`
	FetchNs  int64 `json:"fetch_ns,omitempty"`
	// WallNs is the batch's total wall time.
	WallNs int64 `json:"wall_ns"`
}

// Sample is one executed batch: the advisor's prediction for the engine
// that actually ran, and what the run measured.
type Sample struct {
	Engine    string              `json:"engine"`
	Width     int                 `json:"width"`
	Predicted cost.EngineEstimate `json:"predicted"`
	Observed  Observed            `json:"observed"`
	// RawErr and CalErr are the sample's absolute relative errors on
	// (DistCalcs, PagesRead) under the raw model and under the calibration
	// state as it stood before this sample was folded in (leave-one-out).
	// Stamped by Record; callers leave them zero.
	RawErrDistCalcs float64 `json:"raw_err_dist_calcs"`
	CalErrDistCalcs float64 `json:"cal_err_dist_calcs"`
	RawErrPagesRead float64 `json:"raw_err_pages_read"`
	CalErrPagesRead float64 `json:"cal_err_pages_read"`
}

// ewma is one exponentially weighted average with a sample count (the
// first sample seeds the average).
type ewma struct {
	v float64
	n int64
}

func (e *ewma) fold(sample, alpha float64) {
	if e.n == 0 {
		e.v = sample
	} else {
		e.v += alpha * (sample - e.v)
	}
	e.n++
}

// engineState is the per-engine calibration state.
type engineState struct {
	samples int64
	// logDist / logPages are geometric-EWMA factors in log space:
	// exp(logDist.v) multiplies the model's DistCalcs prediction.
	logDist  ewma
	logPages ewma
	// Residual EWMAs: absolute relative error of the raw model and of the
	// leave-one-out calibrated model, per counter.
	rawErrDist  ewma
	calErrDist  ewma
	rawErrPages ewma
	calErrPages ewma
	// Fitted unit constants from the phase wall times.
	fitDistNs ewma // ns per distance calculation (kernel phase)
	fitPageNs ewma // ns per page read (fetch phase)
	// timeScale maps the model's nominal Total onto this host's wall
	// clock: EWMA of observed wall / predicted total.
	timeScale ewma
}

// Recorder accumulates predicted-vs-observed samples and serves calibrated
// estimates. Safe for concurrent use.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	engines map[string]*engineState
	ring    []Sample // bounded at cfg.RingSize, oldest first
	total   int64
}

// NewRecorder returns an empty recorder with cfg's defaults applied.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), engines: map[string]*engineState{}}
}

// Config returns the recorder's resolved configuration.
func (r *Recorder) Config() Config { return r.cfg }

// absRelErr is |predicted - observed| / observed; an unobservable counter
// (observed 0) reports the predicted magnitude as the error (a prediction
// of 0 is then exact).
func absRelErr(predicted float64, observed int64) float64 {
	if observed == 0 {
		if predicted == 0 {
			return 0
		}
		return predicted
	}
	return math.Abs(predicted-float64(observed)) / float64(observed)
}

// logRatio returns log(observed/predicted) clamped to ±factorClamp, and
// whether the pair yields a usable ratio (predicted > 0; an observed 0 is
// clamped instead of producing -Inf).
func logRatio(predicted float64, observed int64) (float64, bool) {
	if predicted <= 0 {
		return 0, false
	}
	if observed <= 0 {
		return -factorClamp, true
	}
	lr := math.Log(float64(observed) / predicted)
	if lr > factorClamp {
		lr = factorClamp
	} else if lr < -factorClamp {
		lr = -factorClamp
	}
	return lr, true
}

// Record folds one executed batch into the calibration state. The sample's
// residual fields are stamped against the pre-update state (leave-one-out:
// the calibrated error is measured with the factors the advisor would
// actually have used before this batch ran), then the factors, fitted
// constants and ring are updated. The returned sample is the stamped copy.
func (r *Recorder) Record(s Sample) Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.engines[s.Engine]
	if st == nil {
		st = &engineState{}
		r.engines[s.Engine] = st
	}
	a := r.cfg.Alpha

	// Residuals first, against the pre-update factors.
	predDist := float64(s.Predicted.DistCalcs)
	predPages := float64(s.Predicted.PagesRead)
	calDist := predDist * math.Exp(st.logDist.v)
	calPages := predPages * math.Exp(st.logPages.v)
	s.RawErrDistCalcs = absRelErr(predDist, s.Observed.DistCalcs)
	s.CalErrDistCalcs = absRelErr(calDist, s.Observed.DistCalcs)
	s.RawErrPagesRead = absRelErr(predPages, s.Observed.PagesRead)
	s.CalErrPagesRead = absRelErr(calPages, s.Observed.PagesRead)
	st.rawErrDist.fold(s.RawErrDistCalcs, a)
	st.calErrDist.fold(s.CalErrDistCalcs, a)
	st.rawErrPages.fold(s.RawErrPagesRead, a)
	st.calErrPages.fold(s.CalErrPagesRead, a)

	// Then the state update: factors...
	if lr, ok := logRatio(predDist, s.Observed.DistCalcs); ok {
		st.logDist.fold(lr, a)
	}
	if lr, ok := logRatio(predPages, s.Observed.PagesRead); ok {
		st.logPages.fold(lr, a)
	}
	// ...fitted unit constants from the phase splits...
	if s.Observed.KernelNs > 0 && s.Observed.DistCalcs > 0 {
		st.fitDistNs.fold(float64(s.Observed.KernelNs)/float64(s.Observed.DistCalcs), a)
	}
	if s.Observed.FetchNs > 0 && s.Observed.PagesRead > 0 {
		st.fitPageNs.fold(float64(s.Observed.FetchNs)/float64(s.Observed.PagesRead), a)
	}
	// ...and the nominal-total-to-wall scale.
	if s.Observed.WallNs > 0 && s.Predicted.Total > 0 {
		st.timeScale.fold(float64(s.Observed.WallNs)/float64(s.Predicted.Total), a)
	}
	st.samples++
	r.total++

	if len(r.ring) == r.cfg.RingSize {
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
	}
	r.ring = append(r.ring, s)
	return s
}

// Samples returns the total number of recorded samples.
func (r *Recorder) Samples() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// EngineSamples returns the number of recorded samples for one engine.
func (r *Recorder) EngineSamples(engine string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.engines[engine]; st != nil {
		return st.samples
	}
	return 0
}

// CalibrateOne applies the engine's learned counter factors to one raw
// estimate: DistCalcs and CPU scale by the distance factor, PagesRead and
// IO by the page factor, Total is re-derived. An engine with no recorded
// samples passes through unchanged.
func (r *Recorder) CalibrateOne(est cost.EngineEstimate) cost.EngineEstimate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calibrateLocked(est)
}

func (r *Recorder) calibrateLocked(est cost.EngineEstimate) cost.EngineEstimate {
	st := r.engines[est.Engine]
	if st == nil || st.samples == 0 {
		return est
	}
	fd := math.Exp(st.logDist.v)
	fp := math.Exp(st.logPages.v)
	est.DistCalcs = int64(math.Ceil(float64(est.DistCalcs) * fd))
	est.PagesRead = int64(math.Ceil(float64(est.PagesRead) * fp))
	est.CPU = time.Duration(float64(est.CPU) * fd)
	est.IO = time.Duration(float64(est.IO) * fp)
	est.Total = est.IO + est.CPU
	return est
}

// Calibrate applies the learned per-engine factors to a raw ranking and
// re-sorts by the corrected totals (ties by name, as EstimateBatch does).
// Engines without samples keep their raw estimates, so a ranking over a
// mixed fleet degrades gracefully to the raw model where evidence is
// missing.
func (r *Recorder) Calibrate(ests []cost.EngineEstimate) []cost.EngineEstimate {
	r.mu.Lock()
	out := make([]cost.EngineEstimate, len(ests))
	for i, e := range ests {
		out[i] = r.calibrateLocked(e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total < out[j].Total
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// PredictWall predicts the wall time of a batch priced as est, from the
// fitted unit constants when both are available (ns/dist × calibrated
// distance count + ns/page × calibrated page count) and otherwise from the
// nominal-total-to-wall scale. It returns 0 — no prediction — below the
// MinSamples evidence floor, so consumers fall back to their own
// estimators instead of trusting a barely warmed-up fit.
func (r *Recorder) PredictWall(est cost.EngineEstimate) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.engines[est.Engine]
	if st == nil || st.samples < int64(r.cfg.MinSamples) {
		return 0
	}
	cal := r.calibrateLocked(est)
	if st.fitDistNs.n > 0 && st.fitPageNs.n > 0 {
		ns := st.fitDistNs.v*float64(cal.DistCalcs+cal.PivotDistCalcs) +
			st.fitPageNs.v*float64(cal.PagesRead)
		return time.Duration(ns)
	}
	if st.timeScale.n == 0 {
		return 0
	}
	return time.Duration(st.timeScale.v * float64(est.Total))
}

// AbsPctError returns the engine's EWMA absolute relative error for one
// counter ("dist_calcs" or "pages_read"), under the calibrated
// (leave-one-out) model when calibrated is true and the raw model
// otherwise. Unknown engines and counters report 0.
func (r *Recorder) AbsPctError(engine, counter string, calibrated bool) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.engines[engine]
	if st == nil {
		return 0
	}
	switch {
	case counter == "dist_calcs" && calibrated:
		return st.calErrDist.v
	case counter == "dist_calcs":
		return st.rawErrDist.v
	case counter == "pages_read" && calibrated:
		return st.calErrPages.v
	case counter == "pages_read":
		return st.rawErrPages.v
	}
	return 0
}

// Factor returns the engine's learned multiplicative correction for one
// counter ("dist_calcs" or "pages_read"); 1 before any sample.
func (r *Recorder) Factor(engine, counter string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.engines[engine]
	if st == nil {
		return 1
	}
	switch counter {
	case "dist_calcs":
		return math.Exp(st.logDist.v)
	case "pages_read":
		return math.Exp(st.logPages.v)
	}
	return 1
}

// FittedNs returns the engine's fitted time constant in nanoseconds for
// one unit ("dist_calc", "page_read") or the dimensionless wall scale
// ("time_scale"); 0 while unfitted.
func (r *Recorder) FittedNs(engine, unit string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.engines[engine]
	if st == nil {
		return 0
	}
	switch unit {
	case "dist_calc":
		return st.fitDistNs.v
	case "page_read":
		return st.fitPageNs.v
	case "time_scale":
		return st.timeScale.v
	}
	return 0
}

// EngineSnapshot is one engine's calibration state at a point in time.
type EngineSnapshot struct {
	Engine  string `json:"engine"`
	Samples int64  `json:"samples"`
	// FactorDistCalcs / FactorPagesRead multiply the raw model's counters.
	FactorDistCalcs float64 `json:"factor_dist_calcs"`
	FactorPagesRead float64 `json:"factor_pages_read"`
	// Raw vs calibrated EWMA absolute relative errors, per counter. The
	// calibrated figures are leave-one-out: each contributing sample was
	// judged with the factors that preceded it.
	RawAbsPctErrDistCalcs float64 `json:"raw_abs_pct_err_dist_calcs"`
	CalAbsPctErrDistCalcs float64 `json:"cal_abs_pct_err_dist_calcs"`
	RawAbsPctErrPagesRead float64 `json:"raw_abs_pct_err_pages_read"`
	CalAbsPctErrPagesRead float64 `json:"cal_abs_pct_err_pages_read"`
	// Fitted unit constants (0 while unfitted) and the wall scale.
	FittedDistCalcNs float64 `json:"fitted_dist_calc_ns"`
	FittedPageReadNs float64 `json:"fitted_page_read_ns"`
	TimeScale        float64 `json:"time_scale"`
}

// Snapshot is a point-in-time view of the whole recorder: configuration,
// per-engine state (sorted by engine name), and the residual history ring
// (oldest first).
type Snapshot struct {
	Config  Config           `json:"config"`
	Samples int64            `json:"samples"`
	Engines []EngineSnapshot `json:"engines,omitempty"`
	Ring    []Sample         `json:"ring,omitempty"`
}

// Snapshot copies the recorder state. history bounds the returned ring
// (most recent samples win); pass 0 to omit the ring, a negative value for
// the whole retained history.
func (r *Recorder) Snapshot(history int) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Config: r.cfg, Samples: r.total}
	for name, st := range r.engines {
		snap.Engines = append(snap.Engines, EngineSnapshot{
			Engine:                name,
			Samples:               st.samples,
			FactorDistCalcs:       math.Exp(st.logDist.v),
			FactorPagesRead:       math.Exp(st.logPages.v),
			RawAbsPctErrDistCalcs: st.rawErrDist.v,
			CalAbsPctErrDistCalcs: st.calErrDist.v,
			RawAbsPctErrPagesRead: st.rawErrPages.v,
			CalAbsPctErrPagesRead: st.calErrPages.v,
			FittedDistCalcNs:      st.fitDistNs.v,
			FittedPageReadNs:      st.fitPageNs.v,
			TimeScale:             st.timeScale.v,
		})
	}
	sort.Slice(snap.Engines, func(i, j int) bool { return snap.Engines[i].Engine < snap.Engines[j].Engine })
	if history != 0 {
		ring := r.ring
		if history > 0 && len(ring) > history {
			ring = ring[len(ring)-history:]
		}
		snap.Ring = append([]Sample(nil), ring...)
	}
	return snap
}
