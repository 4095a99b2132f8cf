package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"metricdb"
	"metricdb/internal/wire"
)

// tiny shrinks a workload to test size, keeping its kind and data.
func tiny(cfg config) config {
	switch cfg.kind {
	case kindBatch:
		cfg.n, cfg.m, cfg.k, cfg.pool, cfg.replay, cfg.limit = 3000, 10, 5, 2, 2, 2*time.Second
	case kindDBSCAN:
		cfg.n, cfg.m = 600, 10
	case kindStored:
		cfg.n, cfg.m, cfg.k, cfg.pool, cfg.replay = 2000, 10, 5, 2, 2
	}
	return cfg
}

func runTiny(t *testing.T, cfg config, trace bool) result {
	t.Helper()
	res, err := run(tiny(cfg), options{workload: cfg.name, seed: 3, seconds: 0.3, trace: trace, scratch: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct %v, %d of %d failed", cfg.name, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// checkNames fails unless res reports exactly the metrics of defs, with
// their units.
func checkNames(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

// deterministic are the per-layer metrics derived only from counters that
// must repeat exactly for a fixed seed: dist_calcs, avoid_tries, avoided,
// pages_read, preads and bytes_read.
var deterministic = []string{
	"msq.dist_calcs_per_query", "msq.avoid_tries_per_query", "msq.avoided_frac",
	"msq.avoid_hit_ratio", "store.pages_read_per_query", "store.preads_per_query",
	"store.bytes_read_per_query", "explore.pages_read_per_step", "explore.dist_calcs_per_step",
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range workloadNames() {
		cfg := workloads[name]
		t.Run(name, func(t *testing.T) {
			checkNames(t, name, runTiny(t, cfg, false), endToEnd)
			first := runTiny(t, cfg, true)
			checkNames(t, name, first, perLayer)
			second := runTiny(t, cfg, true)
			for _, m := range deterministic {
				if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
					t.Errorf("%s: %s is %v, then %v for the same seed", name, m, a, b)
				}
			}
			if first.Metrics["msq.dist_calcs_per_query"].Value <= 0 {
				t.Errorf("%s: no distance calculations counted", name)
			}
		})
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json names the workloads and
// metrics the program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if l := c.listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the program's %+v", i, l, d)
			}
		}
	}
}

// TestPerturbedAnswersFail checks that a wrong answer is counted as a
// failure by the k-NN and DBSCAN checks.
func TestPerturbedAnswersFail(t *testing.T) {
	cfg := tiny(workloads["knn-batch"])
	in, err := makeInputs(cfg, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.computeRefs(cfg)
	answers := make([][]wire.Answer, len(in.pool[0]))
	for q, ref := range in.refs[0] {
		for _, a := range ref {
			answers[q] = append(answers[q], wire.Answer{ID: uint64(a.ID), Dist: a.Dist})
		}
	}
	var exact outcome
	exact.score(in, 0, answers)
	if exact.failed != 0 || exact.answers != int64(len(answers)) {
		t.Fatalf("reference answers scored %d failed, %d correct", exact.failed, exact.answers)
	}
	perturbations := map[string]func([]wire.Answer){
		"swapped id":  func(as []wire.Answer) { as[1].ID = as[len(as)-1].ID + 1 },
		"shifted":     func(as []wire.Answer) { as[0].Dist += 1e-6 },
		"duplicated":  func(as []wire.Answer) { as[2] = as[1] },
		"missing one": nil,
	}
	for name, perturb := range perturbations {
		bad := make([][]wire.Answer, len(answers))
		for q := range answers {
			bad[q] = append([]wire.Answer(nil), answers[q]...)
		}
		if perturb == nil {
			bad[3] = bad[3][:len(bad[3])-1]
		} else {
			perturb(bad[3])
		}
		var out outcome
		out.score(in, 0, bad)
		if out.failed != 1 || out.wrong != 1 {
			t.Errorf("%s: %d answers failed, %d wrong, want 1 each", name, out.failed, out.wrong)
		}
	}

	dcfg := tiny(workloads["dbscan"])
	din, err := makeInputs(dcfg, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	din.computeRefs(dcfg)
	labels := append([]int(nil), din.dbscan.labels...)
	if !checkPartition(din.dbscan, labels) {
		t.Fatal("reference clustering rejected")
	}
	for i, l := range labels {
		if din.dbscan.core[i] {
			labels[i] = l + 1000
			break
		}
	}
	if checkPartition(din.dbscan, labels) {
		t.Error("clustering with a core object moved to a new cluster accepted")
	}
	labels = append(labels[:0], din.dbscan.labels...)
	for i, l := range labels {
		if l != metricdb.DBSCANNoise {
			labels[i] = metricdb.DBSCANNoise
			break
		}
	}
	if checkPartition(din.dbscan, labels) {
		t.Error("clustering with a clustered object marked noise accepted")
	}
}
