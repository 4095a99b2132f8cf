// Command msqbench regenerates every figure of the paper's evaluation
// (§6, Figures 7–12, plus the distance-vs-comparison micro-measurement)
// as text tables and optional CSV files.
//
// Usage:
//
//	msqbench [-experiment all|micro|fig7|fig8|fig9|fig10|fig11|fig12|chaos|kernels|block|obs|distobs|load|storage|engines|advisor]
//	         [-scale small|medium|paper] [-csv dir] [-measure]
//	         [-kernels-out BENCH_kernels.json]
//	         [-block-out BENCH_block.json]
//	         [-obs-out BENCH_obs.json]
//	         [-distobs-out BENCH_distobs.json]
//	         [-load-out BENCH_load.json]
//	         [-storage-out BENCH_storage.json]
//	         [-engines-out BENCH_engines.json]
//	         [-advisor-out BENCH_advisor.json]
//
// The chaos experiment is not a paper figure: it declusters each workload
// over 4 servers, injects disk faults into 0..3 of them, and reports the
// degraded-mode coverage and recall of the surviving cluster.
//
// The kernels experiment microbenchmarks the bounded distance kernels:
// full Distance against early-abandoning DistanceWithin per metric, vector
// dimensionality and abandon rate, writing the ns/op table to -kernels-out
// as JSON.
//
// The block experiment measures the columnar (SoA) page layout end to
// end: sequential page-pass throughput of one m-query batch on the scan
// engine across dimensionality (4 to 64) × batch width × layout (aos,
// soa), re-checking on the measured runs that soa answers and page reads
// are bit-identical to aos. Results go to -block-out as JSON.
//
// The obs experiment profiles the multi-query processor with the
// observability tracer enabled: per-phase latency histograms (page fetch
// and wait, plan, query-distance matrix, and the page evaluation's
// avoidance checks, kernels and merge) per engine, re-checking that every
// traced run returned
// answers and counters identical to an untraced reference, and writes the
// phase baseline to -obs-out as JSON.
//
// The distobs experiment exercises the distributed observability layer: a
// coordinator fans one batch out to 4 wire servers on loopback TCP (one on
// a transient disk fault, forcing a retried attempt), checks that a single
// stitched cross-server trace with one child span per server call was
// recorded and that traced and untraced runs returned bit-identical
// answers and counters, verifies that the per-query EXPLAIN profile adds
// up to its batch counters, and writes the results to -distobs-out as
// JSON.
//
// The load experiment drives an admission-controlled wire server with an
// open-loop generator through ramp, spike and sustained-overload traffic
// profiles (rates expressed as multiples of the host's own calibrated
// sequential capacity), records latency percentiles, shed rate and
// achieved cross-caller batch width, verifies that overload sheds are
// structured with retry-after hints while admitted answers stay
// bit-identical to the unbatched sequential path, and writes the results
// to -load-out as JSON.
//
// The storage experiment measures the file-backed page store (pread and
// mmap modes) against the simulated disk on the scan engine: one m-query
// batch per backend run cold (empty buffer, every page fetched) and warm
// (buffer covering the dataset), verifying that every backend returned
// answers, statistics and I/O counters bit-identical to the simulated
// reference, and writes the results to -storage-out as JSON.
//
// The engines experiment compares every physical organization the engine
// registry can build (scan, xtree, vafile, pivot, pmtree) on one k-NN
// batch across dimensionality × batch width, re-checking that each engine
// answered bit-identically to the scan, and writes the deterministic work
// counters (distance calculations,
// pages read, pivot setup distances) to -engines-out as JSON.
//
// The advisor experiment evaluates the calibration loop: per engine and
// dimensionality a calibrated database records predicted-vs-observed work
// counters over a warmup, then fresh judged batches compare the raw cost
// model's predictions against the calibrated ones. The run fails unless
// calibration strictly improves the prediction error wherever the raw
// model left any, and unless the calibrated database stayed bit-identical
// to a plain reference on every judged batch. Results go to -advisor-out
// as JSON.
//
// -measure calibrates the cost model on this host instead of using the
// paper's nominal 1999 hardware constants.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"metricdb/internal/cost"
	"metricdb/internal/experiments"
	"metricdb/internal/experiments/advisor"
	"metricdb/internal/parallel"
	"metricdb/internal/report"
	"metricdb/internal/vec"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: all, micro, fig7..fig12, chaos, kernels, block, obs, distobs, load, storage, engines, advisor")
		scaleName  = flag.String("scale", "small", "dataset scale: small, medium or paper")
		csvDir     = flag.String("csv", "", "also write each figure as CSV into this directory")
		measure    = flag.Bool("measure", false, "calibrate the cost model on this host instead of nominal 1999 constants")
		kernelsOut = flag.String("kernels-out", "BENCH_kernels.json", "output file for the kernels experiment's JSON results")
		blockOut   = flag.String("block-out", "BENCH_block.json", "output file for the block experiment's JSON results")
		obsOut     = flag.String("obs-out", "BENCH_obs.json", "output file for the obs experiment's JSON results")
		distObsOut = flag.String("distobs-out", "BENCH_distobs.json", "output file for the distobs experiment's JSON results")
		loadOut    = flag.String("load-out", "BENCH_load.json", "output file for the load experiment's JSON results")
		storageOut = flag.String("storage-out", "BENCH_storage.json", "output file for the storage experiment's JSON results")
		enginesOut = flag.String("engines-out", "BENCH_engines.json", "output file for the engines experiment's JSON results")
		advisorOut = flag.String("advisor-out", "BENCH_advisor.json", "output file for the advisor experiment's JSON results")
	)
	flag.Parse()
	if err := run(*experiment, *scaleName, *csvDir, *measure, *kernelsOut, *blockOut, *obsOut, *distObsOut, *loadOut, *storageOut, *enginesOut, *advisorOut); err != nil {
		fmt.Fprintln(os.Stderr, "msqbench:", err)
		os.Exit(1)
	}
}

func run(experiment, scaleName, csvDir string, measure bool, kernelsOut, blockOut, obsOut, distObsOut, loadOut, storageOut, enginesOut, advisorOut string) error {
	sc, err := experiments.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	want := func(name string) bool { return experiment == "all" || experiment == name }
	valid := map[string]bool{"all": true, "micro": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "fig11": true, "fig12": true, "chaos": true,
		"kernels": true, "block": true, "obs": true, "distobs": true,
		"load": true, "storage": true, "engines": true, "advisor": true}
	if !valid[experiment] {
		return fmt.Errorf("unknown experiment %q", experiment)
	}

	fmt.Printf("scale=%s  astronomy: %d x %d-d   image: %d x %d-d\n\n",
		sc.Name, sc.AstroN, sc.AstroDim, sc.ImageN, sc.ImageDim)

	emit := func(fig *report.Figure) error {
		if err := fig.WriteTable(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, slug(fig.Title)+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fig.WriteCSV(f); err != nil {
			return err
		}
		return f.Close()
	}

	if want("micro") {
		if err := emit(experiments.MicroFigure([]int{20, 64})); err != nil {
			return err
		}
	}

	if want("kernels") {
		sweep, err := experiments.RunKernels([]int{4, 16, 64}, []float64{0, 0.5, 0.95}, 512)
		if err != nil {
			return err
		}
		if err := emit(sweep.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteKernelsJSONFile(kernelsOut, sweep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", kernelsOut)
	}

	if want("block") {
		sweep, err := experiments.RunBlockLayouts([]int{4, 8, 16, 32, 64}, []int{1, 8, 32}, 6000)
		if err != nil {
			return err
		}
		for _, r := range sweep.Results {
			if !r.Identical {
				return fmt.Errorf("block: layout %s at dim %d, m %d diverged from the sequential AoS reference",
					r.Layout, r.Dim, r.M)
			}
		}
		if err := emit(sweep.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteBlockJSONFile(blockOut, sweep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", blockOut)
	}

	if want("engines") {
		sweep, err := experiments.RunEngines([]int{4, 8, 16}, []int{1, 8, 32}, 4000)
		if err != nil {
			return err
		}
		for _, r := range sweep.Results {
			if !r.Identical {
				return fmt.Errorf("engines: %s at dim %d, m %d diverged from the scan reference",
					r.Engine, r.Dim, r.M)
			}
		}
		if err := emit(sweep.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteEnginesJSONFile(enginesOut, sweep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", enginesOut)
	}

	if want("advisor") {
		sweep, err := advisor.Run([]int{4, 8}, 3000)
		if err != nil {
			return err
		}
		for _, r := range sweep.Results {
			if !r.Identical {
				return fmt.Errorf("advisor: %s at dim %d: calibrated run diverged from the plain reference",
					r.Engine, r.Dim)
			}
			if !r.Improved {
				return fmt.Errorf("advisor: %s at dim %d: calibration did not improve the cost model (MAPE %.4f raw vs %.4f calibrated)",
					r.Engine, r.Dim, r.MAPERaw, r.MAPECalibrated)
			}
		}
		if err := emit(sweep.Figure()); err != nil {
			return err
		}
		if err := advisor.WriteJSONFile(advisorOut, sweep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", advisorOut)
	}

	needSweep := want("fig7") || want("fig8") || want("fig9") || want("fig10")
	needParallel := want("fig11") || want("fig12")
	needChaos := want("chaos")
	needObs := want("obs")
	needDistObs := want("distobs")
	needLoad := want("load")
	needStorage := want("storage")
	if !needSweep && !needParallel && !needChaos && !needObs && !needDistObs && !needLoad && !needStorage {
		return nil
	}

	modelFor := func(dim int) cost.Model {
		if measure {
			return cost.Measure(vec.Euclidean{}, dim)
		}
		return cost.PaperModel(dim)
	}

	astro := experiments.Astronomy(sc)
	image, err := experiments.Image(sc)
	if err != nil {
		return err
	}
	workloads := []struct {
		w     experiments.Workload
		model cost.Model
	}{
		{astro, modelFor(sc.AstroDim)},
		{image, modelFor(sc.ImageDim)},
	}

	if needSweep {
		for _, wl := range workloads {
			sweep, err := experiments.RunSweep(wl.w, sc.MValues, wl.model)
			if err != nil {
				return err
			}
			figs := map[string]*report.Figure{
				"fig7":  sweep.Fig7(),
				"fig8":  sweep.Fig8(),
				"fig9":  sweep.Fig9(),
				"fig10": sweep.Fig10(),
			}
			for _, name := range []string{"fig7", "fig8", "fig9", "fig10"} {
				if want(name) {
					if err := emit(figs[name]); err != nil {
						return err
					}
				}
			}
		}
	}

	if needChaos {
		for _, wl := range workloads {
			res, err := experiments.RunChaos(wl.w, 4, sc.BaseM)
			if err != nil {
				return err
			}
			if err := emit(res.Figure()); err != nil {
				return err
			}
		}
	}

	if needObs {
		var profiles []*experiments.ObsProfile
		for _, wl := range workloads {
			profile, err := experiments.RunObs(wl.w, sc.BaseM)
			if err != nil {
				return err
			}
			for _, r := range profile.Results {
				if !r.Identical {
					return fmt.Errorf("obs: %s/%s: traced run diverged from the untraced reference",
						r.Workload, r.Engine)
				}
			}
			if err := emit(profile.Figure()); err != nil {
				return err
			}
			profiles = append(profiles, profile)
		}
		if err := experiments.WriteObsJSONFile(obsOut, profiles); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", obsOut)
	}

	if needDistObs {
		var profiles []*experiments.DistObsProfile
		for _, wl := range workloads {
			profile, err := experiments.RunDistObs(wl.w, 4, sc.BaseM)
			if err != nil {
				return err
			}
			for _, r := range profile.Runs {
				if !r.Identical {
					return fmt.Errorf("distobs: %s: traced run diverged from the untraced reference",
						profile.Workload)
				}
				if r.Traces != 1 {
					return fmt.Errorf("distobs: %s: %d stitched traces, want exactly 1",
						profile.Workload, r.Traces)
				}
				if r.ServerCalls < profile.Servers+1 {
					return fmt.Errorf("distobs: %s: %d server_call spans, want >= %d (servers + retried attempt)",
						profile.Workload, r.ServerCalls, profile.Servers+1)
				}
			}
			for _, e := range profile.Explain {
				if !e.Stable {
					return fmt.Errorf("distobs: %s: EXPLAIN profile does not add up to its batch counters",
						profile.Workload)
				}
			}
			if err := emit(profile.Figure()); err != nil {
				return err
			}
			profiles = append(profiles, profile)
		}
		if err := experiments.WriteDistObsJSONFile(distObsOut, profiles); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", distObsOut)
	}

	if needLoad {
		result, err := experiments.RunLoad(astro, experiments.LoadConfig{})
		if err != nil {
			return err
		}
		for _, r := range result.Runs {
			if !r.Identical {
				return fmt.Errorf("load: %s profile: an admitted answer diverged from the unbatched sequential reference", r.Profile)
			}
			if !r.Stable {
				return fmt.Errorf("load: %s profile unstable: admitted=%d shed=%d errors=%d p95=%.1fms (SLO %.0fms) width=%.2f hints=%v",
					r.Profile, r.Admitted, r.Shed, r.ErrorsOther, r.P95Ms, result.SLOMs, r.AvgWidth, r.RetryAfterHints)
			}
		}
		if err := emit(result.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteLoadJSONFile(loadOut, result); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", loadOut)
	}

	if needStorage {
		var results []*experiments.StorageResult
		for _, wl := range workloads {
			res, err := experiments.RunStorage(wl.w, sc.BaseM)
			if err != nil {
				return err
			}
			for _, r := range res.Runs {
				if !r.Identical {
					return fmt.Errorf("storage: %s/%s backend diverged from the simulated-disk reference",
						r.Workload, r.Backend)
				}
			}
			if err := emit(res.Figure()); err != nil {
				return err
			}
			results = append(results, res)
		}
		if err := experiments.WriteStorageJSONFile(storageOut, results); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", storageOut)
	}

	if needParallel {
		for _, wl := range workloads {
			var f11, f12 []*report.Figure
			for _, kind := range []parallel.EngineKind{parallel.ScanEngine, parallel.XTreeEngine} {
				sw, err := experiments.RunParallelSweep(wl.w, sc, kind, wl.model)
				if err != nil {
					return err
				}
				f11 = append(f11, sw.Fig11())
				f12 = append(f12, sw.Fig12())
			}
			if want("fig11") {
				merged, err := experiments.MergeFigures(
					fmt.Sprintf("Figure 11: parallelization speed-up wrt s (%s database)", wl.w.Name), f11...)
				if err != nil {
					return err
				}
				if err := emit(merged); err != nil {
					return err
				}
			}
			if want("fig12") {
				merged, err := experiments.MergeFigures(
					fmt.Sprintf("Figure 12: overall speed-up wrt s (%s database)", wl.w.Name), f12...)
				if err != nil {
					return err
				}
				if err := emit(merged); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// slug converts a figure title into a file name.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
