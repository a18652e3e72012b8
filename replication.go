package scooter

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"time"

	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/orm"
	"scooter/internal/replica"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/store"
)

// Replication types, re-exported from the internal subsystem.
type (
	// ReplicationServer streams a durable workspace's write-ahead log to
	// followers.
	ReplicationServer = replica.Server
	// ReplicationFollowerInfo is the primary's view of one follower.
	ReplicationFollowerInfo = replica.FollowerInfo
	// FollowerOptions tunes a follower's local durability and reconnect
	// behaviour.
	FollowerOptions = replica.Options
	// ReplicationStatus reports a follower's progress: applied/durable
	// watermarks and lag in LSNs and bytes.
	ReplicationStatus = replica.Status
)

// ErrReadOnly reports a write attempted on a follower workspace. Follower
// state mirrors the primary's log; local writes would diverge from it.
var ErrReadOnly = orm.ErrReadOnly

// parseSpec builds a checked schema from stored specification text.
func parseSpec(text string) (*schema.Schema, error) {
	if text == "" {
		return schema.New(), nil
	}
	w, err := LoadSpec(text)
	if err != nil {
		return nil, err
	}
	return w.conn.Schema(), nil
}

// ServeReplication starts streaming this workspace's write-ahead log to
// followers on addr (e.g. ":7070", or "127.0.0.1:0" for an ephemeral
// port). Only durable workspaces replicate. The server is closed with the
// workspace.
func (w *Workspace) ServeReplication(addr string) (*ReplicationServer, error) {
	if w.wal == nil {
		return nil, errors.New("scooter: replication requires a durable workspace (OpenDurable)")
	}
	srv, err := replica.Serve(w.wal, addr, replica.ServerOptions{
		Metrics: obs.NewReplicaMetrics(w.reg),
	})
	if err != nil {
		return nil, err
	}
	w.closeMu.Lock()
	w.repl = srv
	w.closeMu.Unlock()
	return srv, nil
}

// DurableLSN reports the workspace's durable log position (0 without a
// write-ahead log). A follower whose applied LSN reaches it holds every
// write this workspace has acknowledged.
func (w *Workspace) DurableLSN() uint64 {
	if w.wal == nil {
		return 0
	}
	return w.wal.DurableLSN()
}

// dbHash fingerprints a database's canonical snapshot.
func dbHash(db *store.DB) (string, error) {
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// StateHash fingerprints the workspace's database state and reports the
// durable LSN it corresponds to. Two workspaces with equal hashes hold
// byte-identical states (the specification is included: it lives in a
// replicated collection). Call it quiesced — with no writes in flight —
// or the LSN and the hash may straddle a record.
func (w *Workspace) StateHash() (uint64, string, error) {
	h, err := dbHash(w.db)
	return w.DurableLSN(), h, err
}

// FollowerWorkspace is a read-only replica of a primary workspace: it
// mirrors the primary's write-ahead log into its own directory, applies
// every committed record, and serves policy-checked reads from the
// replicated state. Writes fail with ErrReadOnly. The specification (and
// so the policies the ORM enforces) replicates with the data.
type FollowerWorkspace struct {
	f *replica.Follower

	// reg exposes the follower's replication watermarks (as scrape-time
	// gauges over Status()) and its ORM policy-boundary counters.
	reg        *obs.Registry
	ormMetrics *obs.ORMMetrics

	mu       sync.Mutex
	db       *store.DB
	specText string
	schema   *schema.Schema
	conn     *orm.Conn
}

// OpenFollower opens (or recovers) a follower in dir replicating from the
// primary's replication address. It returns immediately; the follower
// serves the last locally recovered state while it connects and catches
// up in the background, reconnecting with exponential backoff after
// faults.
func OpenFollower(dir, addr string, opts FollowerOptions) (*FollowerWorkspace, error) {
	f, err := replica.Open(dir, addr, opts)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	fw := &FollowerWorkspace{f: f, reg: reg, ormMetrics: obs.NewORMMetrics(reg)}
	status := func(pick func(replica.Status) float64) func() float64 {
		return func() float64 { return pick(f.Status()) }
	}
	reg.GaugeFunc("scooter_repl_applied_lsn",
		"Last primary record applied to the follower's local store.",
		status(func(st replica.Status) float64 { return float64(st.AppliedLSN) }))
	reg.GaugeFunc("scooter_repl_durable_lsn",
		"Prefix of the primary's history durable on the follower.",
		status(func(st replica.Status) float64 { return float64(st.DurableLSN) }))
	reg.GaugeFunc("scooter_repl_primary_durable_lsn",
		"Primary's durable watermark as of the last heartbeat.",
		status(func(st replica.Status) float64 { return float64(st.PrimaryDurableLSN) }))
	reg.GaugeFunc("scooter_repl_lag_lsns",
		"Committed records the follower has not applied yet.",
		status(func(st replica.Status) float64 { return float64(st.LagLSNs) }))
	reg.GaugeFunc("scooter_repl_lag_bytes",
		"Primary's byte backlog for this follower.",
		status(func(st replica.Status) float64 { return float64(st.LagBytes) }))
	reg.GaugeFunc("scooter_repl_connected",
		"1 when a replication session is live, 0 otherwise.",
		status(func(st replica.Status) float64 {
			if st.Connected {
				return 1
			}
			return 0
		}))
	reg.CounterFunc("scooter_repl_bootstraps_total",
		"Snapshot bootstraps performed by this follower.",
		status(func(st replica.Status) float64 { return float64(st.Bootstraps) }))
	reg.CounterFunc("scooter_repl_reconnects_total",
		"Replication sessions re-established after the first.",
		status(func(st replica.Status) float64 { return float64(st.Reconnects) }))
	if err := fw.refresh(); err != nil {
		f.Close()
		return nil, err
	}
	return fw, nil
}

// Metrics returns the follower's metrics registry.
func (fw *FollowerWorkspace) Metrics() *obs.Registry { return fw.reg }

// MetricsHandler returns an http.Handler serving the follower's metrics in
// the Prometheus text format — mount it at /metrics.
func (fw *FollowerWorkspace) MetricsHandler() http.Handler { return obs.Handler(fw.reg) }

// refresh rebinds the ORM connection when replication has advanced the
// spec or rebuilt the store (snapshot bootstrap). Policy enforcement is
// never bypassed: the new connection is read-only with enforcement on.
func (fw *FollowerWorkspace) refresh() error {
	db := fw.f.DB()
	text := migrate.StoredSpec(db)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.conn != nil && db == fw.db && text == fw.specText {
		return nil
	}
	s, err := parseSpec(text)
	if err != nil {
		return err
	}
	conn := orm.Open(s, db)
	conn.SetReadOnly(true)
	conn.SetMetrics(fw.ormMetrics)
	fw.db, fw.specText, fw.schema, fw.conn = db, text, s, conn
	return nil
}

// AsPrinc returns a handle performing policy-checked reads on behalf of p
// against the replicated state. Unreadable fields are stripped exactly as
// on the primary; writes fail with ErrReadOnly.
func (fw *FollowerWorkspace) AsPrinc(p Principal) *Princ {
	// A stale spec (mid-replication migration) keeps the previous
	// connection: reads enforce the policies of a committed prefix.
	_ = fw.refresh()
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.conn.AsPrinc(p)
}

// SpecText renders the replicated specification.
func (fw *FollowerWorkspace) SpecText() string {
	_ = fw.refresh()
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return specfmt.Format(fw.schema)
}

// Models lists the model names in the replicated specification.
func (fw *FollowerWorkspace) Models() []string {
	_ = fw.refresh()
	fw.mu.Lock()
	defer fw.mu.Unlock()
	names := make([]string, 0, len(fw.schema.Models))
	for _, m := range fw.schema.Models {
		names = append(names, m.Name)
	}
	return names
}

// ReplicationStatus reports the follower's progress: applied and durable
// LSN watermarks, the primary's durable LSN, and lag in LSNs and bytes.
func (fw *FollowerWorkspace) ReplicationStatus() ReplicationStatus {
	return fw.f.Status()
}

// WaitForLSN blocks until the follower has applied at least lsn.
func (fw *FollowerWorkspace) WaitForLSN(lsn uint64, timeout time.Duration) error {
	return fw.f.WaitForLSN(lsn, timeout)
}

// StateHash fingerprints the follower's replicated state and the LSN it
// has applied up to. Retries until the hash and LSN agree (replication
// may be applying frames concurrently); comparing against the primary's
// StateHash at the same LSN proves byte-identical convergence.
func (fw *FollowerWorkspace) StateHash() (uint64, string, error) {
	for {
		before := fw.f.Status().AppliedLSN
		h, err := dbHash(fw.f.DB())
		if err != nil {
			return 0, "", err
		}
		if after := fw.f.Status().AppliedLSN; after == before {
			return before, h, nil
		}
	}
}

// Close stops replicating and closes the follower's mirrored log. It is
// idempotent.
func (fw *FollowerWorkspace) Close() error { return fw.f.Close() }
