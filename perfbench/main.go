// Command perfbench is the repository's end-to-end benchmark. It drives
// metricdb through the entry points a user or msqserver uses on one of
// three workloads, checks every answer against an exhaustive-scan
// reference computed outside the timed region, and prints one JSON result
// line as the last line of standard output.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run. With
// -trace 1 it replays a fixed operation list twice: once through the
// public stack and once through the same stack rebuilt from the layers'
// constructors with timing and counting wrappers at their interfaces. The
// two replays must agree bit for bit in answers and deterministic
// counters; the traced one yields the per-layer metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload knn-batch --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scratch is the directory stored datasets are written under; the
	// run removes what it creates there.
	scratch string
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated data and queries")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced replay")
	flag.StringVar(&opts.scratch, "scratch", ".bench_build/data", "directory for stored datasets (removed after the run)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	opts.trace = trace == 1
	cfg, ok := workloads[opts.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %v)", opts.workload, workloadNames()))
	}
	if opts.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive, got %g", opts.seconds))
	}
	res, err := run(cfg, opts)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one workload in the mode opts selects.
func run(cfg config, opts options) (result, error) {
	if err := os.MkdirAll(opts.scratch, 0o755); err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(opts.scratch, cfg.name+"-")
	if err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(cfg, opts.seed, dir)
	if err != nil {
		return result{}, err
	}
	dur := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		return traceRun(cfg, in, dur)
	}
	return measure(cfg, in, dur)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// logf prints a diagnostic line to standard error; standard output is
// reserved for the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
