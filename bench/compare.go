package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareCmd implements `scooterbench compare A.json B.json`. A holds the
// parent commit's runs and B the change's, appended by -out and run in
// alternating pairs, so the i-th run of a workload in A pairs with the
// i-th in B. It prints one row per workload and end-to-end metric, judged
// by the rule of the benchmark's design guide, and exits 1 when any row
// regressed.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: scooterbench compare PARENT.json CHANGE.json")
		return 2
	}
	spec, _, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "scooterbench:", err)
		return 1
	}
	var runs [2]map[string][]*record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "scooterbench:", err)
			return 1
		}
		runs[i] = map[string][]*record{}
		for _, r := range recs {
			runs[i][r.Workload] = append(runs[i][r.Workload], r)
		}
	}
	fmt.Fprintf(stdout, "%-16s %-14s %-5s %12s %12s %8s %6s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent", "change", "delta", "wins", "spread", "bound", "verdict")
	regressed := false
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		// A gain does not count when more operations fail than at the
		// parent commit.
		moreFailures := failed(b) > failed(a)
		for _, ms := range spec.EndToEnd {
			row := judge(ms, values(a, ms.Name), values(b, ms.Name), moreFailures)
			regressed = regressed || row.verdict == "regressed"
			fmt.Fprintf(stdout, "%-16s %-14s %-5s %12.6g %12.6g %+7.1f%% %3d/%-2d %7.1f%% %5.1f%%  %s\n",
				w.name, ms.Name, ms.Unit, row.medA, row.medB, 100*row.delta, row.wins, row.pairs,
				100*row.spread, 100*ms.Bound, row.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func failed(recs []*record) int64 {
	var n int64
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

func values(recs []*record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

type row struct {
	medA, medB, delta, spread float64
	wins, pairs               int
	verdict                   string
}

// judge compares a metric's parent runs a with the change's runs b:
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the parent's
//     interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's spread (interquartile range over median)
//     exceeds the bound, unless every change run reads better, or every
//     one worse, than every parent run;
//   - unchanged otherwise.
//
// delta is the relative change of the median, positive when worse.
func judge(ms metricSpec, a, b []float64, moreFailures bool) row {
	r := row{pairs: min(len(a), len(b))}
	if r.pairs == 0 {
		r.verdict = "missing"
		return r
	}
	sign := 1.0 // +1: lower is better
	if ms.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	for i := 0; i < r.pairs; i++ {
		if better(b[i], a[i]) {
			r.wins++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	r.medA, r.medB = qa[1], qb[1]
	iqrA := qa[2] - qa[0]
	r.delta = sign * (r.medB - r.medA) / math.Abs(r.medA)
	r.spread = max(iqrA/math.Abs(r.medA), (qb[2]-qb[0])/math.Abs(r.medB))
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	gain := float64(r.wins) >= 0.9*float64(r.pairs) && r.delta < 0 && math.Abs(r.medB-r.medA) > iqrA && !moreFailures
	switch {
	case gain && (r.spread <= ms.Bound || allBetter):
		r.verdict = "improved"
	case r.delta > ms.Bound || (allWorse && r.spread > ms.Bound):
		r.verdict = "regressed"
	case r.spread > ms.Bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method of Python's statistics.quantiles(v, n=4), which
// the benchmark's acceptance check uses.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
