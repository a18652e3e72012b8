// Command scooterbench is the repository's benchmark: one seeded command
// that drives Sidecar (the verifier) and the policy-enforcing data path
// through their public layer functions, checks every output, and prints
// every metric named in BENCHMARK.json with its unit and sample count.
//
//	scooterbench -workload W -seed N -seconds S -trace 0|1|FILE [-out FILE]
//	scooterbench compare A.json B.json
//
// Without -workload (or with -workload all) every workload runs in turn.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; metrics holds the end-to-end
// metrics of BENCHMARK.json, or with tracing on its per-layer metrics.
// A run in which any operation fails or returns a wrong answer exits 1.
//
// Run it through bench/run.sh from the repository root, which builds it
// with its caches inside the checkout. README.md describes the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in run order; BENCHMARK.json
// must name exactly these.
var workloads = []struct {
	name string
	run  func(*env) error
}{
	{"corpus-replay", runCorpus},
	{"solver-hard", runSolverHard},
	{"chitter-feed", runChitter},
	{"bibifi-backfill", runBibifi},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("scooterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 0, "measurement time per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "0", "0 for end-to-end metrics; 1 for per-layer metrics; a file name also writes the spans there")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "scooterbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "scooterbench:", err)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(spec.RunSeconds) * time.Second
	}
	traced, spanFile := *trace != "0", ""
	if *trace != "0" && *trace != "1" {
		spanFile = *trace
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "scooterbench: unknown workload %q\n", *workload)
		return 2
	}

	total := &result{Correct: true, Metrics: map[string]resultItem{}}
	for _, name := range names {
		rec, err := runWorkload(name, defaultSizes(), *seed, window, traced, spanFile, filepath.Join(root, ".bench_build"), spec.PerLayer)
		if err != nil {
			fmt.Fprintf(stderr, "scooterbench: %s: %v\n", name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "scooterbench:", err)
				return 1
			}
		}
		printRecord(stdout, rec)
		list := spec.EndToEnd
		if traced {
			list = spec.PerLayer
		}
		res, err := rec.result(list)
		if err != nil {
			fmt.Fprintf(stderr, "scooterbench: %s: %v\n", name, err)
			return 1
		}
		total.add(name, res, len(names) > 1)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "scooterbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh scratch directory under dataDir
// and returns its record. The scratch directory is removed afterwards.
// Per-layer metrics of layers the workload does not exercise are recorded
// as 0 over 0 samples.
func runWorkload(name string, sz sizes, seed int64, window time.Duration, traced bool, spanFile, dataDir string, perLayer []metricSpec) (*record, error) {
	var fn func(*env) error
	for _, w := range workloads {
		if w.name == name {
			fn = w.run
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, window: window, sz: sz, dir: dir, rep: newReport()}
	if traced {
		e.tr = newTracer()
	}
	if err := fn(e); err != nil {
		return nil, err
	}
	e.rep.set("live_heap_mb", "MB", e.liveHeap, e.heapChecks)
	for _, ms := range perLayer {
		if _, ok := e.rep.metrics[ms.Name]; !ok {
			e.rep.set(ms.Name, ms.Unit, 0, 0)
		}
	}
	if e.tr != nil {
		e.tr.selfTimes(e.rep)
		if spanFile != "" {
			if err := e.tr.write(spanFile); err != nil {
				return nil, err
			}
		}
	}
	rec := &record{
		Workload: name, Seed: seed, Seconds: window.Seconds(), Traced: traced,
		Host: fingerprint(seed), Correct: e.rep.failed == 0,
		Attempted: e.rep.attempted, Failed: e.rep.failed, Failures: e.rep.failures,
		Metrics: e.rep.metrics,
	}
	return rec, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the repository root, when run from bench/) and returns it with the
// directory it was found in.
func loadSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, dir, nil
	}
	return nil, "", errors.New("BENCHMARK.json not found in the working directory or its parent")
}

// metric is one measured value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is one workload run as appended to -out files and read back by
// compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Overhead holds, for a traced run, each end-to-end metric's traced
	// value minus the same metric of the latest untraced run of the same
	// workload and seed in the -out file.
	Overhead map[string]float64 `json:"tracing_overhead,omitempty"`
}

// host is the fingerprint written into every record.
type host struct {
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func fingerprint(seed int64) host {
	h := host{
		NumCPU: runtime.NumCPU(), CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seed: seed, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the metrics named in list, checking that each was
// measured with the unit BENCHMARK.json declares.
func (r *record) result(list []metricSpec) (*result, error) {
	res := &result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultItem{}}
	for _, ms := range list {
		m, ok := r.Metrics[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", ms.Name)
		}
		if m.Unit != ms.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", ms.Name, m.Value)
		}
		res.Metrics[ms.Name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}

// add folds one workload's result into the combined one; with several
// workloads, metric names are prefixed by the workload.
func (t *result) add(workload string, r *result, prefix bool) {
	t.Correct = t.Correct && r.Correct
	t.Attempted += r.Attempted
	t.Failed += r.Failed
	for name, m := range r.Metrics {
		if prefix {
			name = workload + "/" + name
		}
		t.Metrics[name] = m
	}
}

// printRecord writes the human-readable report of one run: every metric
// with its unit and sample count, then any failures.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%t nproc=%d gomaxprocs=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.Go, rec.Host.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, name := range names {
		if d, ok := rec.Overhead[name]; ok {
			fmt.Fprintf(w, "tracing overhead %-22s %+14.6g %s\n", name, d, rec.Metrics[name].Unit)
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%t\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
}

// appendRecord appends rec to the JSON-lines file path. A traced record
// first gets its tracing overhead against the file's latest untraced
// record of the same workload and seed.
func appendRecord(path string, rec *record) error {
	if rec.Traced {
		prev, err := readRecords(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		for i := len(prev) - 1; i >= 0; i-- {
			p := prev[i]
			if p.Traced || p.Workload != rec.Workload || p.Seed != rec.Seed {
				continue
			}
			rec.Overhead = map[string]float64{}
			for name, m := range p.Metrics {
				if t, ok := rec.Metrics[name]; ok && !strings.Contains(name, ".") {
					rec.Overhead[name] = t.Value - m.Value
				}
			}
			break
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON-lines file of records.
func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, &rec)
	}
	return out, nil
}
