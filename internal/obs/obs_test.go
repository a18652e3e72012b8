package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden locks the exposition format: family ordering, HELP/
// TYPE lines, label rendering, and cumulative histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "Operations.")
	c.Add(3)
	g := reg.Gauge("test_depth", "Queue depth.")
	g.Set(2.5)
	v := reg.CounterVec("test_errors_total", "Errors by kind.", "kind")
	v.With("timeout").Add(2)
	v.With("conflict").Inc()
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.GaugeFunc("test_live", "Scrape-time gauge.", func() float64 { return 7 })
	gv := reg.GaugeVec("test_queue_depth", "Depth by shard.", "shard")
	gv.With("0").Set(4)
	gv.With("1").Set(1.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP test_depth Queue depth.",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		"# HELP test_errors_total Errors by kind.",
		"# TYPE test_errors_total counter",
		`test_errors_total{kind="conflict"} 1`,
		`test_errors_total{kind="timeout"} 2`,
		"# HELP test_latency_seconds Latency.",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
		"# HELP test_live Scrape-time gauge.",
		"# TYPE test_live gauge",
		"test_live 7",
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# HELP test_queue_depth Depth by shard.",
		"# TYPE test_queue_depth gauge",
		`test_queue_depth{shard="0"} 4`,
		`test_queue_depth{shard="1"} 1.5`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegisterGetOrCreate verifies that two layers asking for the same
// name share one metric.
func TestRegisterGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "Shared.")
	b := reg.Counter("shared_total", "Shared.")
	if a != b {
		t.Fatal("same name produced two counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter desynced: %d", b.Value())
	}
}

// TestNilSafety exercises every recorder on nil receivers — each must be a
// no-op, since layers run unregistered by default.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "").Inc()
	reg.Gauge("x", "").Set(1)
	reg.Histogram("x", "", SecondsBuckets).Observe(1)
	reg.CounterVec("x", "", "l").With("v").Inc()
	reg.GaugeVec("x", "", "l").With("v").Set(1)
	reg.GaugeFunc("x", "", func() float64 { return 0 })
	reg.CounterFunc("x", "", func() float64 { return 0 })
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var vm *VerifyMetrics
	vm.ObserveProof(0.1)
	vm.RecordUnknown("deadline")
	var wm *WALMetrics
	wm.RecordAppend()
	wm.RecordFsync()
	wm.RecordBytes(1)
	wm.ObserveBatch(1)
	wm.RecordCompaction()
	wm.RecordRecovery(0.1, 1)
	var rm *ReplicaMetrics
	rm.RecordFrame(1)
	rm.RecordHeartbeat()
	rm.RecordSnapshot(1)
	var om *ORMMetrics
	om.RecordReadCheck(true)
	om.RecordWriteCheck()
	om.RecordWriteDenied()
	var tr *Tracer
	tr.Emit(ProofEvent{})
	if tr.Err() != nil {
		t.Fatal("nil tracer reported an error")
	}
}

// TestConcurrentScrape hammers every metric set from writer goroutines
// while scraping the registry — run under -race this is the torn-read and
// data-race check for the whole obs core.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	vm := NewVerifyMetrics(reg)
	wm := NewWALMetrics(reg)
	rm := NewReplicaMetrics(reg)
	om := NewORMMetrics(reg)

	const writers, iters = 8, 500
	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for j := 0; j < iters; j++ {
				vm.ObserveProof(0.002)
				vm.RecordUnknown("deadline")
				wm.RecordAppend()
				wm.RecordBytes(64)
				wm.ObserveBatch(4)
				rm.RecordFrame(128)
				om.RecordReadCheck(j%2 == 0)
				om.RecordWriteCheck()
			}
		}()
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Errorf("scrape returned %d", rec.Code)
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	<-scraperDone

	total := int64(writers * iters)
	if got := vm.ProofSeconds.Count(); got != total {
		t.Errorf("proof observations = %d, want %d", got, total)
	}
	if got := om.FieldsStripped.Value(); got != total/2 {
		t.Errorf("stripped = %d, want %d", got, total/2)
	}
}

// TestHandlerContentType checks the scrape endpoint's exposition headers.
func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "X.").Inc()
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestTracer checks JSON-lines framing and concurrent emission.
func TestTracer(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	tr := NewTracer(w)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.Emit(ProofEvent{Fingerprint: "00ff", Kind: "User", Verdict: "safe", DurationNS: 1})
			}
		}()
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("got %d lines, want 200", len(lines))
	}
	for _, line := range lines {
		var ev ProofEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if ev.Fingerprint != "00ff" || ev.Verdict != "safe" {
			t.Fatalf("event round-trip mismatch: %+v", ev)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
