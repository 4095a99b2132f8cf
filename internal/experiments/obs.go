package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/vec"
)

// The obs experiment profiles the multi-query processor with the
// observability tracer enabled: one multi-query batch per engine,
// recording the per-phase latency histograms (page fetch and wait, plan,
// query-distance matrix, and the page evaluation — Lemma-1/2 avoidance
// checks, distance kernels and answer merging). Each traced run is checked
// against an untraced
// reference run on a fresh engine — answers, page reads, distance
// calculations, avoidance counters must be bit-identical, the tracing
// contract. The results are the BENCH_obs.json artifact: the per-phase
// latency baseline for regression comparison.

// ObsPhase is one phase's latency histogram summary within a run.
type ObsPhase struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

// ObsResult is one traced engine run.
type ObsResult struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Width is always 1 — the processor evaluates a batch in one
	// sequential page loop — and keys the row against earlier baselines.
	Width            int     `json:"width"`
	Queries          int     `json:"queries"`
	Seconds          float64 `json:"seconds"`
	PagesRead        int64   `json:"pages_read"`
	DistCalcs        int64   `json:"dist_calcs"`
	Avoided          int64   `json:"avoided"`
	AvoidTries       int64   `json:"avoid_tries"`
	PartialAbandoned int64   `json:"partial_abandoned"`
	// Identical reports whether the traced run's answers and counters
	// matched the untraced reference run exactly; false flags a tracing
	// perturbation bug.
	Identical bool       `json:"identical"`
	Phases    []ObsPhase `json:"phases"`
}

// ObsProfile is one workload's phase-latency measurement set.
type ObsProfile struct {
	Workload string      `json:"workload"`
	M        int         `json:"m"`
	Results  []ObsResult `json:"results"`
}

// RunObs profiles one m-query batch of w's workload per engine. Each
// engine runs the batch twice on freshly reset engines — once untraced
// (the reference), once with a tracer installed — and reports the traced
// run's phase histograms plus the equivalence verdict.
func RunObs(w Workload, m int) (*ObsProfile, error) {
	queries, err := w.Queries(w.querySeed(), m)
	if err != nil {
		return nil, err
	}
	profile := &ObsProfile{Workload: w.Name, M: m}
	for _, maker := range []EngineMaker{ScanMaker(w), XTreeMaker(w)} {
		run := func(tr *obs.Tracer) ([]query.Answer, msq.Stats, float64, error) {
			eng, err := maker.Make()
			if err != nil {
				return nil, msq.Stats{}, 0, err
			}
			proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
			if err != nil {
				return nil, msq.Stats{}, 0, err
			}
			if tr != nil {
				proc = proc.WithTracer(tr)
			}
			start := time.Now()
			lists, stats, err := proc.NewSession().MultiQueryAll(queries)
			// The X-tree maker reuses one tree across runs; detach the
			// tracer so the next (untraced) run stays hook-free.
			eng.Pager().SetTracer(nil)
			if err != nil {
				return nil, msq.Stats{}, 0, err
			}
			var flat []query.Answer
			for _, l := range lists {
				flat = append(flat, l.Answers()...)
			}
			return flat, stats, time.Since(start).Seconds(), nil
		}

		refAnswers, refStats, _, err := run(nil)
		if err != nil {
			return nil, err
		}
		tr := obs.New(obs.Config{SlowQueryThreshold: -1})
		answers, stats, elapsed, err := run(tr)
		if err != nil {
			return nil, err
		}

		res := ObsResult{
			Workload:         w.Name,
			Engine:           maker.Name,
			Width:            1,
			Queries:          m,
			Seconds:          elapsed,
			PagesRead:        stats.PagesRead,
			DistCalcs:        stats.DistCalcs,
			Avoided:          stats.Avoided,
			AvoidTries:       stats.AvoidTries,
			PartialAbandoned: stats.PartialAbandoned,
			Identical: sameFlatAnswers(refAnswers, answers) &&
				stats.PagesRead == refStats.PagesRead &&
				stats.DistCalcs == refStats.DistCalcs &&
				stats.Avoided == refStats.Avoided &&
				stats.AvoidTries == refStats.AvoidTries &&
				stats.PartialAbandoned == refStats.PartialAbandoned,
		}
		for p := 0; p < obs.NumPhases; p++ {
			snap := tr.Snapshot(obs.Phase(p))
			if snap.Count == 0 {
				continue
			}
			res.Phases = append(res.Phases, ObsPhase{
				Phase:   obs.Phase(p).String(),
				Count:   snap.Count,
				TotalNs: snap.SumNs,
				MeanNs:  float64(snap.Mean().Nanoseconds()),
				P50Ns:   float64(snap.Quantile(0.5).Nanoseconds()),
				P99Ns:   float64(snap.Quantile(0.99).Nanoseconds()),
			})
		}
		profile.Results = append(profile.Results, res)
	}
	return profile, nil
}

// sameFlatAnswers requires exact equality of two flattened answer lists.
func sameFlatAnswers(a, b []query.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// Figure renders the runs as per-phase time share, one series per engine:
// where a multi-query batch spends its wall clock.
func (p *ObsProfile) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Phase time share (%s database, m=%d)", p.Workload, p.M),
		XLabel: "phase index",
		YLabel: "fraction of traced time",
	}
	names := obs.PhaseNames()
	for i := range names {
		fig.XVals = append(fig.XVals, float64(i))
	}
	for _, r := range p.Results {
		var total int64
		byPhase := map[string]int64{}
		for _, ph := range r.Phases {
			byPhase[ph.Phase] = ph.TotalNs
			total += ph.TotalNs
		}
		series := make([]float64, len(names))
		for i, n := range names {
			if total > 0 {
				series[i] = float64(byPhase[n]) / float64(total)
			}
		}
		fig.AddSeries(r.Engine, series) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteObsJSON writes the profiles as an indented JSON document (the
// BENCH_obs.json artifact).
func WriteObsJSON(w io.Writer, profiles []*ObsProfile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profiles)
}

// WriteObsJSONFile writes the artifact to path.
func WriteObsJSONFile(path string, profiles []*ObsProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteObsJSON(f, profiles); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
