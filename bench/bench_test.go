package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// tinySizes shrinks every workload so that all four, untraced and traced,
// run in a few seconds.
func tinySizes() sizes {
	return sizes{
		setups:             1,
		corpusPassRate:     10,
		corpusWarmup:       1,
		hardRate:           150,
		hardScripts:        60,
		hardWarmup:         5,
		chitterUsers:       200,
		chitterPeeps:       2,
		chitterFollows:     3,
		chitterRate:        400,
		bibifiUsers:        300,
		bibifiRate:         300,
		bibifiCompactBytes: 16 << 10,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsEmitEveryMetric runs each workload at tiny sizes, untraced
// and traced, and checks that it is correct and emits every metric
// BENCHMARK.json names, with its declared unit; the traced run must also
// write its spans.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
		}
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range list {
			if !metricName.MatchString(ms.Name) {
				t.Errorf("metric name %q", ms.Name)
			}
		}
	}

	dir := t.TempDir()
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			spans := ""
			if traced {
				spans = filepath.Join(dir, name+".spans")
			}
			rec, err := runWorkload(name, tinySizes(), 1, time.Second, traced, spans, dir, spec.PerLayer)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failures %v", name, traced, rec.Correct, rec.Attempted, rec.Failures)
			}
			list := spec.EndToEnd
			if traced {
				list = spec.PerLayer
			}
			if _, err := rec.result(list); err != nil {
				t.Errorf("%s traced=%t: %v", name, traced, err)
			}
			for m := range rec.Metrics {
				if !metricName.MatchString(m) {
					t.Errorf("%s: metric name %q", name, m)
				}
			}
			if traced {
				checkSpans(t, spans)
			}
		}
	}
}

// checkSpans checks that the span file holds spans whose parents it also
// holds.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids, parents := map[int64]bool{}, map[int64]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %+v ends before it starts", path, s)
		}
		ids[s.ID] = true
		if s.Parent != 0 {
			parents[s.Parent] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for p := range parents {
		if !ids[p] {
			t.Errorf("%s: parent span %d missing", path, p)
		}
	}
}

func TestJudge(t *testing.T) {
	ms := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.8, 1.3, 0.7, 1.2, 0.9, 1.5, 0.6, 1.1}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", parent, "unchanged"},
		{"faster", scale(0.8), "improved"},
		{"slower", scale(1.2), "regressed"},
		{"slightly slower", scale(1.03), "unchanged"},
		{"noisy", noisy, "unresolved"},
	} {
		if got := judge(ms, parent, c.change, false).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(ms, parent, scale(0.8), true).verdict; got == "improved" {
		t.Error("a change with more failures counted as improved")
	}
}

// TestQuartiles checks against Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
