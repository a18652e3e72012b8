package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sizes fixes how much data and load each workload uses. defaultSizes is
// what the benchmark measures; the smoke test shrinks everything so a run
// takes a second or two.
type sizes struct {
	// setups is how many times each workload sets up; setup_s is the
	// median and the last set-up is the one measured.
	setups int
	// corpusPassRate and hardRate are the verifier workloads' passes and
	// scripts per second of the window. Each run does this fixed amount of
	// work, sized to last about the window on the reference host, so two
	// commits verify exactly the same scripts: verification retains memory
	// per parsed script, and a time-bounded run would tie peak heap to
	// throughput.
	corpusPassRate, hardRate float64
	// corpusWarmup passes run during set-up, after the pass that seeds the
	// verdict store.
	corpusWarmup int
	// hardScripts is the solver-hard population, verified in passes.
	hardScripts int
	// hardWarmup scripts are verified untimed during set-up.
	hardWarmup int
	// chitterUsers users each author chitterPeeps peeps and follow about
	// chitterFollows others.
	chitterUsers, chitterPeeps, chitterFollows int
	// chitterRate is the open-loop rate in operations per second, a sixth
	// of the closed-loop capacity measured on the reference host (3.5k to
	// 4.2k operations per second). The host's capacity drops to 2.2k in its
	// slow minutes, and at 1000 operations per second the reads of one run
	// in four then fell into a backlog and kept it for the rest of the
	// window, which made the latency bimodal.
	chitterRate float64
	// bibifiUsers are seeded before the AddField backfill migrates them.
	bibifiUsers int
	// bibifiRate is the open-loop rate in operations per second.
	bibifiRate float64
	// bibifiCompactBytes is the WAL compaction threshold, small enough
	// that several compactions fall inside the window.
	bibifiCompactBytes int64
}

func defaultSizes() sizes {
	return sizes{
		setups:             3,
		corpusPassRate:     80,
		corpusWarmup:       9,
		hardRate:           800,
		hardScripts:        5000,
		hardWarmup:         200,
		chitterUsers:       10000,
		chitterPeeps:       8,
		chitterFollows:     10,
		chitterRate:        600,
		bibifiUsers:        20000,
		bibifiRate:         1000,
		bibifiCompactBytes: 512 << 10,
	}
}

// env is what a workload runs with.
type env struct {
	seed   int64
	window time.Duration
	sz     sizes
	dir    string
	tr     *tracer // nil when untraced
	rep    *report

	liveHeap   float64 // MB; see checkpointHeap
	heapChecks int
}

// report accumulates a workload's metrics and its operation outcomes.
// Workers record outcomes concurrently.
type report struct {
	mu        sync.Mutex
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric measured over n samples.
func (r *report) set(name, unit string, v float64, n int) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	r.mu.Unlock()
}

// attempt counts n operations attempted.
func (r *report) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed or wrong operation and keeps the first few
// messages.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs set-up sz.setups times, records the median as setup_s, keeps
// the last set-up and discards the others.
func setup[T any](e *env, do func(i int) (T, error), discard func(T)) (T, error) {
	var kept T
	var times []float64
	for i := 0; i < e.sz.setups; i++ {
		start := time.Now()
		v, err := do(i)
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < e.sz.setups-1 {
			discard(v)
		}
		// Every set-up, and the measurement after the last one, starts
		// from a collected heap, so the garbage of the one before does not
		// decide when the collector next runs.
		runtime.GC()
		kept = v
	}
	e.checkpointHeap()
	sort.Float64s(times)
	e.rep.set("setup_s", "s", median(times), len(times))
	return kept, nil
}

// lat collects latencies (in seconds) or other samples from concurrent
// workers.
type lat struct {
	mu sync.Mutex
	v  []float64
}

func (l *lat) add(d time.Duration) { l.addf(d.Seconds()) }

// addf adds a sample that is not a duration.
func (l *lat) addf(v float64) {
	l.mu.Lock()
	l.v = append(l.v, v)
	l.mu.Unlock()
}

func (l *lat) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.v)
}

// sorted returns the samples in ascending order.
func (l *lat) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := append([]float64(nil), l.v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of sorted samples by nearest rank, or 0
// for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// setLatency records the p50 and p99 of the latencies in l under the
// names p50 and p99, in unit (ms or us).
func (e *env) setLatency(p50, p99, unit string, l *lat) {
	s := l.sorted()
	scale := map[string]float64{"ms": 1e3, "us": 1e6}[unit]
	e.rep.set(p50, unit, quantile(s, 0.5)*scale, len(s))
	e.rep.set(p99, unit, quantile(s, 0.99)*scale, len(s))
}

// setOpLatency records the end-to-end latency of the workload's
// operations: op_p50_ms over all of them, and op_p90_ms as the median,
// over consecutive chunks of 100 operations in completion order, of each
// chunk's 90th percentile, so every chunk's percentile has ten samples
// beyond it. On this benchmark's two-core host a higher percentile is
// decided by a handful of collector or scheduler stalls per run and
// varies by more than any bound worth setting; one stall moves one chunk
// and not the median of the chunks. The p99 over the whole window is
// recorded as op_p99_ms when at least ten samples lie beyond it.
func (e *env) setOpLatency(l *lat) error {
	l.mu.Lock()
	v := append([]float64(nil), l.v...)
	l.mu.Unlock()
	chunks := len(v) / 100
	if chunks == 0 {
		return fmt.Errorf("%d operations leave fewer than 10 beyond the p90", len(v))
	}
	p90s := make([]float64, chunks)
	for i := range p90s {
		c := v[i*len(v)/chunks : (i+1)*len(v)/chunks]
		sort.Float64s(c)
		p90s[i] = quantile(c, 0.9)
	}
	sort.Float64s(p90s)
	e.rep.set("op_p90_ms", "ms", median(p90s)*1e3, len(v))
	e.setMedianAndTail("op", l)
	return nil
}

// setMedianAndTail records the median of the latencies in l as
// <prefix>_p50_ms and, when at least ten samples lie beyond it, the p99 as
// <prefix>_p99_ms.
func (e *env) setMedianAndTail(prefix string, l *lat) {
	s := l.sorted()
	e.rep.set(prefix+"_p50_ms", "ms", quantile(s, 0.5)*1e3, len(s))
	if len(s) >= 1000 {
		e.rep.set(prefix+"_p99_ms", "ms", quantile(s, 0.99)*1e3, len(s))
	}
}

// median returns the median of sorted samples, averaging the middle two.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

// openLoop issues rate×d operations at a fixed rate: one dispatcher feeds
// two workers, and op(worker, i, due) times operation i from when it was
// due, so a stall counts against every operation queued behind it. Worker 0
// takes the reads and worker 1 the operations write reports: with two
// workers sharing one queue, a read queued behind a write waited for its
// fsync, and on a slow-disk minute the reads of one run in three fell into
// a backlog they kept for the rest of the window. A server that serves
// requests concurrently does not make readers wait for other users'
// writes. It returns how late the dispatcher ran and the deepest backlog
// it saw.
func openLoop(rate float64, d time.Duration, write func(i int) bool, op func(worker, i int, due time.Time)) (late *lat, backlog int) {
	n := int(rate * d.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	var wg sync.WaitGroup
	var lanes [2]chan job
	for w := range lanes {
		// Sized to every send, so the dispatcher never blocks and keeps to
		// its schedule however far the workers fall behind.
		lanes[w] = make(chan job, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range lanes[w] {
				op(w, j.i, j.due)
			}
		}(w)
	}
	late = &lat{}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		late.add(time.Since(due))
		backlog = max(backlog, len(lanes[0])+len(lanes[1]))
		w := 0
		if write(i) {
			w = 1
		}
		lanes[w] <- job{i, due}
	}
	for _, l := range lanes {
		close(l)
	}
	wg.Wait()
	return late, backlog
}

// closedLoop runs two clients that each issue their next operation as soon
// as the previous one completes, for d. It returns the operations
// completed.
func closedLoop(d time.Duration, op func(client, i int)) int {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for c := range counts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += 2 {
				op(c, i)
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	return counts[0] + counts[1]
}

// inBursts runs op(0) … op(n-1) in ten bursts, each after a collection,
// and returns the median burst's throughput, counting the operations each
// call reports. Like capacity, it keeps one collector cycle that lands
// badly from moving the whole run's throughput.
func inBursts(n int, op func(i int) int) float64 {
	const bursts = 10
	var rates []float64
	for b := 0; b < bursts; b++ {
		lo, hi := b*n/bursts, (b+1)*n/bursts
		if lo == hi {
			continue
		}
		runtime.GC()
		ops, start := 0, time.Now()
		for i := lo; i < hi; i++ {
			ops += op(i)
		}
		rates = append(rates, float64(ops)/time.Since(start).Seconds())
	}
	sort.Float64s(rates)
	return median(rates)
}

// capacity measures closed-loop throughput over d in ten bursts, each
// after a collection, and returns the median burst's operations per
// second and the operations completed. Under a closed loop the collector
// runs most of the time, and where in its cycle one long loop starts and
// ends moves its throughput by more than a tenth; a burst that a long
// cycle lands on moves only itself.
func capacity(d time.Duration, op func(client, i int)) (float64, int) {
	const bursts = 10
	rates := make([]float64, bursts)
	done := 0
	for b := range rates {
		runtime.GC()
		n := closedLoop(d/bursts, func(c, i int) { op(c, done+i) })
		done += n
		rates[b] = float64(n) / (d / bursts).Seconds()
	}
	sort.Float64s(rates)
	return median(rates), done
}

// checkpointHeap collects garbage and raises live_heap_mb to the heap
// still live, if larger. Workloads call it after set-up and after each
// measured phase. A peak sampled while the program runs depends on where
// the collector is in its cycle and moved by a fifth between runs; what
// survives a collection at fixed points does not.
func (e *env) checkpointHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	e.liveHeap = max(e.liveHeap, float64(s[0].Value.Uint64())/(1<<20))
	e.heapChecks++
}

// runtimeStats is a reading of the runtime counters the benchmark reports
// per window.
type runtimeStats struct {
	gcCycles     uint64
	allocObjects uint64
	allocBytes   uint64
	pauses       *metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles:     s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		allocBytes:   s[2].Value.Uint64(),
		pauses:       s[3].Value.Float64Histogram(),
	}
}

// setGC records the GC cycles and the p99 stop-the-world GC pause between
// two readings.
func (e *env) setGC(before, after runtimeStats) {
	e.rep.set("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles), 1)
	var total uint64
	counts := make([]uint64, len(after.pauses.Counts))
	for i := range counts {
		counts[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += counts[i]
	}
	p99, seen := 0.0, uint64(0)
	for i, c := range counts {
		seen += c
		if c > 0 && float64(seen) >= 0.99*float64(total) {
			// The bucket's upper bound; the last bucket is unbounded.
			p99 = after.pauses.Buckets[i+1]
			if math.IsInf(p99, 1) {
				p99 = after.pauses.Buckets[i]
			}
			break
		}
	}
	e.rep.set("runtime.gc_pause_p99_us", "us", p99*1e6, int(total))
}
