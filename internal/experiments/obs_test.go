package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
)

// tinyWorkload keeps the experiment smoke tests in the milliseconds.
func tinyWorkload(t *testing.T) Workload {
	t.Helper()
	items := dataset.Uniform(9, 500, 6)
	w := Workload{Name: "tiny", Items: items, Dim: 6, K: 5}
	w.Queries = func(seed int64, m int) ([]msq.Query, error) {
		picks, err := dataset.SampleQueries(seed, items, m)
		if err != nil {
			return nil, err
		}
		out := make([]msq.Query, len(picks))
		for i, it := range picks {
			out[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(5)}
		}
		return out, nil
	}
	return w
}

func TestRunObs(t *testing.T) {
	profile, err := RunObs(tinyWorkload(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile.Results) != 2 { // scan + xtree
		t.Fatalf("got %d results, want 2", len(profile.Results))
	}
	for _, r := range profile.Results {
		if !r.Identical {
			t.Errorf("%s: traced run diverged from untraced reference", r.Engine)
		}
		if r.DistCalcs == 0 || r.PagesRead == 0 {
			t.Errorf("%s: empty counters %+v", r.Engine, r)
		}
		phases := map[string]ObsPhase{}
		for _, ph := range r.Phases {
			phases[ph.Phase] = ph
			if ph.Count <= 0 || ph.TotalNs < 0 {
				t.Errorf("%s: degenerate phase %+v", r.Engine, ph)
			}
		}
		for _, want := range []string{
			obs.PhaseKernel.String(), obs.PhasePageWait.String(), obs.PhaseMatrix.String(),
		} {
			if _, ok := phases[want]; !ok {
				t.Errorf("%s: phase %q missing", r.Engine, want)
			}
		}
	}

	fig := profile.Figure()
	if len(fig.Series) != 2 {
		t.Errorf("figure has %d series, want 2", len(fig.Series))
	}

	var buf bytes.Buffer
	if err := WriteObsJSON(&buf, []*ObsProfile{profile}); err != nil {
		t.Fatal(err)
	}
	var decoded []ObsProfile
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(decoded) != 1 || len(decoded[0].Results) != len(profile.Results) {
		t.Error("artifact round-trip lost results")
	}
}
