package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// ProofEvent is one line of a proof trace: a single strictness proof with
// its verdict and the solver effort it cost. DurationNS is the only
// non-deterministic field — two identical runs under a fixed clock differ
// only there (the determinism test strips it before comparing).
type ProofEvent struct {
	Fingerprint  string `json:"fingerprint"`
	Kind         string `json:"kind"`
	Verdict      string `json:"verdict"`
	CacheHit     bool   `json:"cache_hit"`
	Rounds       int    `json:"rounds,omitempty"`
	TheoryChecks int    `json:"theory_checks,omitempty"`
	Conflicts    int64  `json:"conflicts,omitempty"`
	Decisions    int64  `json:"decisions,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
	Restarts     int64  `json:"restarts,omitempty"`
	Why          string `json:"why,omitempty"`
	DurationNS   int64  `json:"duration_ns"`
}

// Tracer writes ProofEvents as JSON lines. A nil *Tracer is a valid no-op
// sink; Emit is safe for concurrent use.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer wraps w in a concurrent JSON-lines event writer.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Emit appends one event. The first write error sticks and suppresses
// further output. Nil-safe.
func (t *Tracer) Emit(ev ProofEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	_, t.err = t.w.Write(append(data, '\n'))
}

// Err returns the first write error, if any. Nil-safe.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
