package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The engines experiment sweeps dimensionality × batch width × physical
// organization through the engine registry — every engine the factory can
// build, on one fixed-seed dataset per dimensionality — re-checking on the
// measured runs themselves that each engine answers bit-identically to the
// scan. The deterministic work counters (distance calculations, pages
// read) are the artifact's payload: they are what the cost advisor
// predicts, and the committed baseline turns "the pivot table prunes
// distance calculations the scan must perform" into a regression-gated
// fact (each pivot row's speedup field is the scan row's DistCalcs over
// that row's DistCalcs + PivotDistCalcs).

// EngineResult is one (dim, m, engine) measurement.
type EngineResult struct {
	Dim    int    `json:"dim"`
	M      int    `json:"m"`
	Engine string `json:"engine"`
	// DistCalcs and PagesRead are the deterministic work counters of the
	// cold run, judged by benchcompare.
	DistCalcs int64 `json:"dist_calcs"`
	PagesRead int64 `json:"pages_read"`
	// PivotDistCalcs are the per-query setup distances of the pivot-based
	// engines (informational; zero elsewhere).
	PivotDistCalcs int64 `json:"pivot_dist_calcs,omitempty"`
	// Speedup is the scan's DistCalcs over this engine's total distance
	// work (DistCalcs + PivotDistCalcs) at the same (dim, m): > 1 means
	// the engine's pruning paid for its setup. Scan rows are exactly 1.
	Speedup float64 `json:"speedup"`
	// Identical reports bit-identical answers to the scan (exact float
	// equality).
	Identical bool `json:"identical"`
	// NsPerQuery is warm-buffer wall time per query (machine-dependent;
	// not judged).
	NsPerQuery float64 `json:"ns_per_query"`
}

// EnginesSweep is the full engine comparison (the BENCH_engines.json
// artifact).
type EnginesSweep struct {
	N            int            `json:"n"`
	PageCapacity int            `json:"page_capacity"`
	Pivots       int            `json:"pivots"`
	Dims         []int          `json:"dims"`
	MValues      []int          `json:"m_values"`
	Engines      []string       `json:"engines"`
	Results      []EngineResult `json:"results"`
}

const (
	enginesCapacity = 64
	enginesPivots   = 8
	enginesK        = 10
)

func enginesQueries(rng *rand.Rand, m, dim int) []msq.Query {
	queries := make([]msq.Query, m)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = msq.Query{ID: uint64(i), Vec: v, Type: query.NewKNN(enginesK)}
	}
	return queries
}

// enginesRun evaluates the batch on a fresh engine (cold buffer, so the
// I/O counters of different engines are comparable) and returns answers
// and counters.
func enginesRun(kind engines.Kind, items []store.Item, dim int, queries []msq.Query) (blockRun, *msq.Processor, error) {
	eng, err := engines.Build(engines.Spec{
		Kind: kind, Items: items, Dim: dim,
		PageCapacity: enginesCapacity,
		BufferPages:  (len(items) + enginesCapacity - 1) / enginesCapacity,
		Pivots:       enginesPivots,
	})
	if err != nil {
		return blockRun{}, nil, err
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		return blockRun{}, nil, err
	}
	run, err := blockEval(proc, queries)
	return run, proc, err
}

// enginesIdentical is the strict answer contract: same IDs, bit-identical
// distances, in the same order.
func enginesIdentical(ref, got blockRun) bool {
	if len(ref.answers) != len(got.answers) {
		return false
	}
	for q := range ref.answers {
		if len(ref.answers[q]) != len(got.answers[q]) {
			return false
		}
		for i := range ref.answers[q] {
			if ref.answers[q][i] != got.answers[q][i] {
				return false
			}
		}
	}
	return true
}

// RunEngines sweeps dim × m × engine over n fixed-seed uniform items per
// dimensionality.
func RunEngines(dims, ms []int, n int) (*EnginesSweep, error) {
	kinds := []engines.Kind{engines.Scan, engines.XTree, engines.VAFile, engines.Pivot, engines.PMTree}
	sweep := &EnginesSweep{N: n, PageCapacity: enginesCapacity, Pivots: enginesPivots,
		Dims: dims, MValues: ms}
	for _, k := range kinds {
		sweep.Engines = append(sweep.Engines, string(k))
	}

	for _, dim := range dims {
		rng := rand.New(rand.NewSource(int64(11000 + dim)))
		items := blockItems(int64(13000+dim), n, dim)
		for _, m := range ms {
			queries := enginesQueries(rng, m, dim)
			var scanRef blockRun
			var scanDistCalcs int64
			for _, kind := range kinds {
				ref, proc, err := enginesRun(kind, items, dim, queries)
				if err != nil {
					return nil, fmt.Errorf("%s dim=%d m=%d: %w", kind, dim, m, err)
				}
				if kind == engines.Scan {
					scanRef = ref
					scanDistCalcs = ref.stats.DistCalcs
				}
				res := EngineResult{Dim: dim, M: m, Engine: string(kind),
					DistCalcs:      ref.stats.DistCalcs,
					PagesRead:      ref.stats.PagesRead,
					PivotDistCalcs: ref.stats.PivotDistCalcs,
					Identical:      enginesIdentical(scanRef, ref),
				}
				if total := res.DistCalcs + res.PivotDistCalcs; total > 0 {
					res.Speedup = float64(scanDistCalcs) / float64(total)
				}
				// Timing reuses the reference run's engine: its buffer now
				// holds every visited page, so the measurement is CPU work
				// plus buffer hits — engine against engine.
				elapsed, err := timeBatch(func() error {
					_, _, err := proc.NewSession().MultiQueryAll(queries)
					return err
				})
				if err != nil {
					return nil, err
				}
				res.NsPerQuery = float64(elapsed.Nanoseconds()) / float64(m)
				sweep.Results = append(sweep.Results, res)
			}
		}
	}
	return sweep, nil
}

// Figure renders the sweep as distance-work speedup over the scan against
// the batch width, one series per (engine, dim), scan omitted (identically
// 1).
func (s *EnginesSweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Engine distance-work speed-up wrt m (n=%d, k=%d)", s.N, enginesK),
		XLabel: "m (queries per batch)",
		YLabel: "scan DistCalcs over engine DistCalcs",
	}
	for _, m := range s.MValues {
		fig.XVals = append(fig.XVals, float64(m))
	}
	bySeries := map[string][]float64{}
	var order []string
	for _, r := range s.Results {
		if r.Engine == "scan" {
			continue
		}
		key := fmt.Sprintf("%s d=%d", r.Engine, r.Dim)
		if _, ok := bySeries[key]; !ok {
			order = append(order, key)
		}
		bySeries[key] = append(bySeries[key], r.Speedup)
	}
	for _, name := range order {
		fig.AddSeries(name, bySeries[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteEnginesJSON writes the sweep as an indented JSON document.
func WriteEnginesJSON(w io.Writer, sweep *EnginesSweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweep)
}

// WriteEnginesJSONFile writes the BENCH_engines.json artifact to path.
func WriteEnginesJSONFile(path string, sweep *EnginesSweep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEnginesJSON(f, sweep); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
