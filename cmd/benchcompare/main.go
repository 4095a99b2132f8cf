// Command benchcompare diffs freshly generated BENCH_*.json artifacts
// against the committed baselines and fails (exit 1) on regression beyond
// a tolerance.
//
// Usage:
//
//	benchcompare [-tolerance 0.10] [-speedup-tolerance 0.25] baseline.json fresh.json [...]
//
// The two documents of each pair are walked in lockstep and compared
// metric by metric, keyed by JSON field name. Rows of a result table (an
// array of objects) are matched on a row key — the row's string-valued
// fields plus the axis fields dim, m, width, servers and abandon_rate —
// so a row inserted, removed or reordered by newer code still compares
// against its own baseline. When those keys do not tell the baseline rows
// apart, rows pair by index. Only scale-free metrics are judged, so the
// comparison is meaningful across machines:
//
//   - identity verdicts ("identical", "stable", "improved"): a
//     true-to-false flip is always a regression, tolerance does not apply;
//   - work counters, lower is better ("pages_read", "dist_calcs",
//     "mape_calibrated"): fresh exceeding baseline by more than the
//     tolerance is a regression;
//   - effectiveness metrics, higher is better ("speedup", "avoided",
//     "partial_abandoned"): fresh falling short of baseline by more than
//     the tolerance is a regression.
//
// Wall-clock fields (seconds, *_ns, *_ns_per_op) are machine-dependent
// and are deliberately not compared. Speedups are ratios of wall clocks —
// scale-free across machines but noisy run to run on a shared box — so
// they are judged against the wider -speedup-tolerance; the deterministic
// counters and verdicts use the tight -tolerance. A judged metric present
// in the baseline but missing from the fresh document is a regression, and
// so is a baseline row with no matching fresh row (reported once, by its
// key); fields and rows added by newer code are ignored, and so are
// entries dropped from arrays that hold no judged metric (an axis list),
// so baselines age gracefully.
//
// Exit codes: 0 all pairs within tolerance, 1 regression detected, 2
// usage or unreadable/corrupt input, 3 a baseline file does not exist —
// the usual cause is a freshly added experiment whose artifact has not
// been committed yet; the error message shows the seeding commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative slack for deterministic metrics")
	speedupTol := flag.Float64("speedup-tolerance", 0.25, "allowed relative slack for wall-clock-derived speedups")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-tolerance 0.10] [-speedup-tolerance 0.25] baseline.json fresh.json [...]")
		os.Exit(2)
	}
	failed := false
	for i := 0; i < len(args); i += 2 {
		if baselineMissing(args[i]) {
			fmt.Fprint(os.Stderr, missingBaselineMsg(args[i], args[i+1]))
			os.Exit(3)
		}
		regressions, compared, err := compareFiles(args[i], args[i+1], *tolerance, *speedupTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(2)
		}
		if len(regressions) == 0 {
			fmt.Printf("ok   %s vs %s (%d metrics within %.0f%%)\n", args[i], args[i+1], compared, *tolerance*100)
			continue
		}
		failed = true
		fmt.Printf("FAIL %s vs %s (%d metrics compared):\n", args[i], args[i+1], compared)
		for _, r := range regressions {
			fmt.Printf("  %s\n", r)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func compareFiles(basePath, freshPath string, tolerance, speedupTol float64) (regressions []string, compared int, err error) {
	base, err := readJSON(basePath)
	if err != nil {
		return nil, 0, err
	}
	fresh, err := readJSON(freshPath)
	if err != nil {
		return nil, 0, err
	}
	c := &comparer{basePath: basePath, tolerance: tolerance, speedupTol: speedupTol}
	c.walk("", base, fresh)
	sort.Strings(c.regressions)
	return c.regressions, c.compared, nil
}

// baselineMissing reports whether the committed baseline file does not
// exist — a distinct, fixable situation (exit 3) that must not be
// conflated with a corrupt or unreadable input (exit 2): there is nothing
// to judge against, and the fix is to seed and commit the baseline, not
// to debug the comparison.
func baselineMissing(path string) bool {
	_, err := os.Stat(path)
	return os.IsNotExist(err)
}

// missingBaselineMsg is the actionable report for a missing baseline: it
// names the gap and spells out the exact commands that close it.
func missingBaselineMsg(basePath, freshPath string) string {
	return fmt.Sprintf(`benchcompare: no committed baseline at %[1]s
A fresh artifact exists at %[2]s, but with no baseline to judge it
against no regression verdict is possible. If this experiment is new,
inspect the fresh artifact, then seed the baseline from it and commit:

    cp %[2]s %[1]s
    git add %[1]s

and re-run the comparison.
`, basePath, freshPath)
}

func readJSON(path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Metric classification by JSON field name.
var (
	boolMetrics = map[string]bool{"identical": true, "stable": true, "improved": true}
	// higherWorse are work counters: doing more of this is a regression.
	// mape_calibrated is the advisor experiment's calibrated prediction
	// error — the quantity the calibration loop exists to shrink.
	higherWorse = map[string]bool{"pages_read": true, "dist_calcs": true, "mape_calibrated": true}
	// lowerWorse are effectiveness metrics: achieving less is a regression.
	lowerWorse = map[string]bool{"speedup": true, "avoided": true, "partial_abandoned": true}
)

type comparer struct {
	basePath    string
	tolerance   float64
	speedupTol  float64
	compared    int
	regressions []string
}

// fail records one regression line, prefixed with the baseline file and
// the full metric path — each line must name the offending baseline and
// key on its own, because CI logs interleave many pairs.
func (c *comparer) fail(path, format string, args ...any) {
	c.regressions = append(c.regressions, c.basePath+" "+path+": "+fmt.Sprintf(format, args...))
}

// walk descends base and fresh in lockstep. Objects are matched by key,
// arrays row by row (see walkRows). Leaves are judged only when their key
// is classified.
func (c *comparer) walk(path string, base, fresh any) {
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			c.fail(path, "object in baseline, %T in fresh", fresh)
			return
		}
		for k, bv := range b {
			sub := path + "/" + k
			fv, ok := f[k]
			if !ok {
				if boolMetrics[k] || higherWorse[k] || lowerWorse[k] {
					c.fail(sub, "judged metric missing from fresh document")
				}
				continue
			}
			c.walk(sub, bv, fv)
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			c.fail(path, "array in baseline, %T in fresh", fresh)
			return
		}
		c.walkRows(path, b, f)
	case bool:
		key := leafKey(path)
		if !boolMetrics[key] {
			return
		}
		fv, ok := fresh.(bool)
		if !ok {
			c.fail(path, "bool in baseline, %T in fresh", fresh)
			return
		}
		c.compared++
		if b && !fv {
			c.fail(path, "verdict flipped true -> false")
		}
	case float64:
		key := leafKey(path)
		worse := higherWorse[key]
		better := lowerWorse[key]
		if !worse && !better {
			return
		}
		fv, ok := fresh.(float64)
		if !ok {
			c.fail(path, "number in baseline, %T in fresh", fresh)
			return
		}
		c.compared++
		tol := c.tolerance
		if key == "speedup" {
			tol = c.speedupTol
		}
		switch {
		case b == 0:
			if worse && fv > 0 {
				c.fail(path, "was 0, now %g", fv)
			}
		case worse && fv > b*(1+tol):
			c.fail(path, "%g -> %g (+%.1f%%, tolerance %.0f%%)", b, fv, (fv/b-1)*100, tol*100)
		case better && fv < b*(1-tol):
			c.fail(path, "%g -> %g (-%.1f%%, tolerance %.0f%%)", b, fv, (1-fv/b)*100, tol*100)
		}
	}
}

// axisFields are the numeric fields that, next to the string-valued ones,
// identify a row of a result table.
var axisFields = map[string]bool{"dim": true, "m": true, "width": true, "servers": true, "abandon_rate": true}

// walkRows pairs the rows of two arrays. Object rows whose keys (rowKey)
// are unique within the baseline are matched on them, and the path keeps
// the baseline index; otherwise rows pair by index.
func (c *comparer) walkRows(path string, base, fresh []any) {
	fields := keyFields(base)
	baseKeys := make(map[string]bool, len(base))
	keyed := fields != nil
	for _, row := range base {
		k, ok := rowKey(row, fields)
		if !ok || baseKeys[k] {
			keyed = false
			break
		}
		baseKeys[k] = true
	}
	if !keyed {
		if len(fresh) < len(base) && judged(path, base[len(fresh):]) {
			c.fail(path, "baseline has %d entries, fresh only %d", len(base), len(fresh))
		}
		for i := 0; i < len(base) && i < len(fresh); i++ {
			c.walk(fmt.Sprintf("%s[%d]", path, i), base[i], fresh[i])
		}
		return
	}
	byKey := make(map[string]any, len(fresh))
	for i := len(fresh) - 1; i >= 0; i-- { // the first fresh row with a key wins
		if k, ok := rowKey(fresh[i], fields); ok {
			byKey[k] = fresh[i]
		}
	}
	for i, row := range base {
		k, _ := rowKey(row, fields)
		sub := fmt.Sprintf("%s[%d]", path, i)
		if f, ok := byKey[k]; ok {
			c.walk(sub, row, f)
		} else {
			c.fail(sub, "baseline row {%s} has no match in fresh", k)
		}
	}
}

// keyFields returns the sorted names of the baseline rows' key fields
// (string-valued or axis fields), or nil when some row is not an object.
// Fresh rows are keyed on the same names, so a field newer code adds does
// not change their keys.
func keyFields(rows []any) []string {
	set := map[string]bool{}
	for _, row := range rows {
		obj, ok := row.(map[string]any)
		if !ok {
			return nil
		}
		for k, v := range obj {
			if _, isString := v.(string); isString || axisFields[k] {
				set[k] = true
			}
		}
	}
	fields := make([]string, 0, len(set))
	for k := range set {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	return fields
}

// rowKey renders row's values of fields as "name=value,..."; ok is false
// when row is not an object.
func rowKey(row any, fields []string) (key string, ok bool) {
	obj, ok := row.(map[string]any)
	if !ok {
		return "", false
	}
	parts := make([]string, 0, len(fields))
	for _, k := range fields {
		if v, present := obj[k]; present {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	return strings.Join(parts, ","), true
}

// judged reports whether v, found at path, holds any judged metric — a
// missing baseline entry without one (an axis list, say) loses nothing.
func judged(path string, v any) bool {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if judged(path+"/"+k, e) {
				return true
			}
		}
		return false
	case []any:
		for _, e := range x {
			if judged(path, e) {
				return true
			}
		}
		return false
	}
	key := leafKey(path)
	return boolMetrics[key] || higherWorse[key] || lowerWorse[key]
}

func leafKey(path string) string {
	key := path[strings.LastIndex(path, "/")+1:]
	if i := strings.IndexByte(key, '['); i >= 0 {
		key = key[:i]
	}
	return key
}
