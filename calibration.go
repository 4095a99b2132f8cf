package metricdb

import (
	"fmt"
	"sync"
	"time"

	"metricdb/internal/calib"
	"metricdb/internal/cost"
	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
)

// CalibrationStats is the advisor-calibration snapshot a DB reports: the
// recorder's configuration, per-engine correction factors, raw-vs-
// calibrated residual EWMAs, fitted time constants, and (when requested
// with history) the recent sample ring.
type CalibrationStats = calib.Snapshot

// calibrationSeed is the fixed seed of the calibration meter's intrinsic-
// dimension estimate. Fixing it makes recorded predictions identical to
// what DB.AdviseBatch(queries, calibrationSeed) serves, so the residuals
// score the advice a caller would actually have received.
const calibrationSeed int64 = 1

// calibMeter scores executed batches against the advisor's prediction for
// the engine that ran them and feeds the samples to a calib.Recorder.
// Everything it consumes is already computed (Stats deltas, wall times) or
// side-effect free (the intrinsic-dimension estimate samples with its own
// raw metric; batchRangeSelectivity uses the raw Options.Metric) — it
// never touches the counting metric, the pager, or an engine, which is
// what makes calibrated runs bit-identical to plain runs.
type calibMeter struct {
	db  *DB
	rec *calib.Recorder

	once      sync.Once
	intrinsic float64
	warning   string
}

// setupCalibration attaches a calibration meter when Options.Calibrate is
// set. Called by every DB construction path (Open, OpenStored).
func (db *DB) setupCalibration() {
	if !db.opts.Calibrate {
		return
	}
	db.calib = &calibMeter{db: db, rec: calib.NewRecorder(calib.Config{Seed: calibrationSeed})}
}

// Calibration exposes the underlying calibration recorder (nil unless the
// DB was opened with Options.Calibrate) for in-module integrations such as
// the metrics registry of cmd/msqserver; external callers read
// ProcessorStats().Calibration instead.
func (db *DB) Calibration() *calib.Recorder {
	if db.calib == nil {
		return nil
	}
	return db.calib.rec
}

// intrinsicDim resolves (once) the dataset's intrinsic-dimension estimate
// under the calibration seed, falling back to the ambient dimension like
// AdviseBatch does when the estimator degenerates.
func (m *calibMeter) intrinsicDim() float64 {
	m.once.Do(func() {
		est, err := dataset.EstimateIntrinsicDimension(m.db.items, 100, 10, calibrationSeed)
		if err != nil {
			m.warning = fmt.Sprintf("intrinsic-dimension estimate failed: %v; pricing with ambient dimension %d", err, m.db.dim)
			est = float64(m.db.dim)
		}
		m.intrinsic = est
	})
	return m.intrinsic
}

// predict prices the batch for the database's active engine with exactly
// the shape AdviseBatch would build.
func (m *calibMeter) predict(queries []Query) (cost.EngineEstimate, bool) {
	if len(queries) == 0 {
		return cost.EngineEstimate{}, false
	}
	shape := batchShape(m.db.items, queries, m.db.opts, m.intrinsicDim())
	est, err := cost.PaperModel(m.db.dim).EstimateFor(shape, string(m.db.opts.Engine))
	if err != nil {
		return cost.EngineEstimate{}, false
	}
	return est, true
}

// phaseSums reads the cumulative kernel and page-fetch phase wall times
// from the processor's tracer (zero without one); the caller differences
// two reads around a batch to approximate its phase split. The kernel
// phase times whole pages, so the fitted ns-per-distance also absorbs the
// Lemma 1/2 avoidance checks and the sequential inline merge.
func (m *calibMeter) phaseSums(proc *msq.Processor) (kernelNs, fetchNs int64) {
	tr := proc.Tracer()
	if !tr.Enabled() {
		return 0, 0
	}
	return tr.Snapshot(obs.PhaseKernel).SumNs, tr.Snapshot(obs.PhasePageFetch).SumNs
}

// record folds one executed batch into the recorder. kernelNs/fetchNs may
// be zero (untraced, unprofiled runs); the fitted time constants then
// simply do not update for this sample.
func (m *calibMeter) record(queries []Query, stats msq.Stats, wall time.Duration, kernelNs, fetchNs int64) {
	pred, ok := m.predict(queries)
	if !ok {
		return
	}
	m.rec.Record(calib.Sample{
		Engine:    pred.Engine,
		Width:     len(queries),
		Predicted: pred,
		Observed: calib.Observed{
			DistCalcs:      stats.DistCalcs,
			PivotDistCalcs: stats.PivotDistCalcs,
			PagesRead:      stats.PagesRead,
			KernelNs:       kernelNs,
			FetchNs:        fetchNs,
			WallNs:         int64(wall),
		},
	})
}

// annotateExplain attaches the advisor's predicted-cost rows for the
// engine the batch ran on: the raw model row always, plus the calibrated
// row once the recorder has samples. Annotation happens before the run is
// recorded, so the calibrated row is the prediction the advisor would have
// served when the batch was admitted — not a fit to the batch itself.
func (m *calibMeter) annotateExplain(ex *msq.Explain, queries []Query) {
	pred, ok := m.predict(queries)
	if !ok {
		return
	}
	ex.Predicted = append(ex.Predicted, predictedRow(pred, "model"))
	if m.rec.EngineSamples(pred.Engine) > 0 {
		ex.Predicted = append(ex.Predicted, predictedRow(m.rec.CalibrateOne(pred), "calibrated"))
	}
}

func predictedRow(e cost.EngineEstimate, source string) msq.PredictedCost {
	return msq.PredictedCost{
		Engine:         e.Engine,
		Source:         source,
		PagesRead:      e.PagesRead,
		DistCalcs:      e.DistCalcs,
		PivotDistCalcs: e.PivotDistCalcs,
		TotalNs:        int64(e.Total),
	}
}

// PredictBlock predicts the wall time of executing queries as one batch on
// this database, from the calibrated cost model's width-m pricing and the
// fitted time constants. It returns 0 — no prediction — without a
// calibration recorder or below its evidence floor, so it plugs directly
// into admit.Config.PredictBlock: the admission release gate then falls
// back to its own execution EWMA until the model has earned trust.
func (db *DB) PredictBlock(queries []Query) time.Duration {
	m := db.calib
	if m == nil || len(queries) == 0 {
		return 0
	}
	pred, ok := m.predict(queries)
	if !ok {
		return 0
	}
	return m.rec.PredictWall(pred)
}

// ObserveBlock records one externally executed batch (the admission
// controller's released blocks, which run on the processor directly) as a
// calibration sample. A nil-calibration DB ignores the call, so the pair
// (PredictBlock, ObserveBlock) can be wired into admit.Config
// unconditionally.
func (db *DB) ObserveBlock(queries []Query, stats Stats, elapsed time.Duration) {
	if db.calib == nil || len(queries) == 0 {
		return
	}
	db.calib.record(queries, stats, elapsed, 0, 0)
}
