// Package scooter is the public API of the Scooter & Sidecar reproduction:
// a domain-specific language for declaring data models and security
// policies, an SMT-backed verifier (Sidecar) that proves migrations safe
// before they run, and a policy-enforcing ORM over a document store.
//
// The core workflow mirrors the paper (PLDI 2021):
//
//	w := scooter.NewWorkspace()                  // empty spec + database
//	err := w.Migrate(`CreateModel(@principal User { ... });`)
//	...
//	alice := w.AsPrinc(scooter.Instance("User", aliceID))
//	obj, err := alice.FindByID("User", otherID)  // unreadable fields stripped
//
// Migrations that weaken a policy or leak data between fields fail with an
// *UnsafeError carrying a counterexample database in the paper's format.
package scooter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/gen"
	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/store"
	"scooter/internal/store/wal"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// Re-exported value and handle types. The aliases make the internal
// packages' types part of the public API without duplicating them.
type (
	// ID identifies a stored instance.
	ID = store.ID
	// Doc is a raw document (field name to value).
	Doc = store.Doc
	// Value is a document field value.
	Value = store.Value
	// Optional is the stored representation of Option fields.
	Optional = store.Optional
	// Filter is a query criterion for Find.
	Filter = store.Filter
	// Principal identifies who performs an operation.
	Principal = eval.Principal
	// Princ performs policy-checked operations for one principal.
	Princ = orm.Princ
	// Object is a partial instance with unreadable fields stripped.
	Object = orm.Object
	// PolicyError reports an operation rejected by a policy.
	PolicyError = orm.PolicyError
	// UnsafeError reports a migration command that failed verification.
	UnsafeError = migrate.UnsafeError
	// Counterexample is a witness database demonstrating a violation.
	Counterexample = verify.Counterexample
	// Plan is a verified migration ready to execute.
	Plan = migrate.Plan
)

// Nil is the zero ID.
const Nil = store.Nil

// Static returns a static principal (e.g. Unauthenticated).
func Static(name string) Principal { return eval.StaticPrincipal(name) }

// Instance returns a dynamic principal: an instance of a @principal model.
func Instance(model string, id ID) Principal { return eval.InstancePrincipal(model, id) }

// Filter constructors, mirroring Scooter's Find operators.
var (
	// Eq builds an equality filter.
	Eq = store.Eq
)

// Lt builds a less-than filter.
func Lt(field string, v Value) Filter { return Filter{Field: field, Op: store.FilterLt, Value: v} }

// Le builds a less-or-equal filter.
func Le(field string, v Value) Filter { return Filter{Field: field, Op: store.FilterLe, Value: v} }

// Gt builds a greater-than filter.
func Gt(field string, v Value) Filter { return Filter{Field: field, Op: store.FilterGt, Value: v} }

// Ge builds a greater-or-equal filter.
func Ge(field string, v Value) Filter { return Filter{Field: field, Op: store.FilterGe, Value: v} }

// Contains builds a set-containment filter.
func Contains(field string, v Value) Filter {
	return Filter{Field: field, Op: store.FilterContains, Value: v}
}

// Some wraps a present Optional value.
func Some(v Value) Optional { return store.Some(v) }

// None returns an absent Optional.
func None() Optional { return store.None() }

// Options configures migration verification.
type Options = migrate.Options

// DefaultOptions returns the standard configuration (equivalence tracking
// on, verification on).
func DefaultOptions() Options { return migrate.DefaultOptions() }

// Workspace ties together the authoritative specification, the database,
// and the policy-enforcing connection. It is the programmatic equivalent of
// a Scooter project directory.
type Workspace struct {
	db *store.DB
	// conn is the one holder of the live schema: migrations flip it (see
	// migrate.Apply) and every reader loads conn.Schema() once per call.
	conn *orm.Conn
	wal  *wal.Log
	// repl is the replication server, when ServeReplication started one.
	repl *ReplicationServer
	// closeMu serialises Close against concurrent callers (and against
	// ServeReplication installing repl).
	closeMu sync.Mutex
	closed  bool
	// journaled tracks migrations applied during this session, whose
	// schema effects the live schema already includes.
	journaled map[string]bool
	// migMu serialises migrations against each other. Foreground ORM
	// operations never take it: during an online migration they are bounded
	// only by the store's per-collection locks, which the batched backfill
	// holds for at most one batch at a time.
	migMu sync.Mutex

	// reg is the workspace's metrics registry; every layer records into it
	// and MetricsHandler exposes it in the Prometheus text format.
	reg *obs.Registry
	// cache memoizes strictness verdicts across this workspace's migrations
	// (its eviction count is read at scrape time).
	cache *verify.Cache
	// stats counts verdict-store lookups and solver effort for Migrate
	// calls that bring no Stats of their own; the registry's verifier and
	// solver counters are read from it at scrape time.
	stats           *verify.Stats
	verifyMetrics   *obs.VerifyMetrics
	ormMetrics      *obs.ORMMetrics
	backfillMetrics *obs.BackfillMetrics
}

// statsCounters are the registry counters a workspace reads from its
// verify.Stats at scrape time.
var statsCounters = []struct {
	name, help string
	get        func(verify.Snapshot) int64
}{
	{"scooter_solver_solves_total", "SMT solver invocations.", func(s verify.Snapshot) int64 { return s.QueriesSolved }},
	{"scooter_solver_rounds_total", "CDCL(T) abstraction-refinement rounds.", func(s verify.Snapshot) int64 { return s.SolverRounds }},
	{"scooter_solver_theory_checks_total", "Theory (simplex) consistency checks.", func(s verify.Snapshot) int64 { return s.TheoryChecks }},
	{"scooter_solver_conflicts_total", "SAT conflicts analysed.", func(s verify.Snapshot) int64 { return s.Conflicts }},
	{"scooter_solver_decisions_total", "SAT decisions taken.", func(s verify.Snapshot) int64 { return s.Decisions }},
	{"scooter_solver_propagations_total", "SAT unit propagations.", func(s verify.Snapshot) int64 { return s.Propagations }},
	{"scooter_solver_restarts_total", "SAT Luby restarts.", func(s verify.Snapshot) int64 { return s.Restarts }},
	{"scooter_verify_cache_hits_total", "Strictness verdicts answered from the verdict cache.", func(s verify.Snapshot) int64 { return s.CacheHits }},
	{"scooter_verify_cache_misses_total", "Strictness queries that missed the verdict cache.", func(s verify.Snapshot) int64 { return s.CacheMisses }},
	{"scooter_verify_persist_hits_total", "Strictness verdicts answered from the persistent verdict store.", func(s verify.Snapshot) int64 { return s.PersistHits }},
	{"scooter_verify_persist_misses_total", "Strictness queries that missed the persistent verdict store.", func(s verify.Snapshot) int64 { return s.PersistMisses }},
}

// newWorkspace wires a workspace around a schema and database: one metrics
// registry, a shared verdict cache and verify.Stats exposed through
// scrape-time counters, and per-layer metric sets for the migration
// pipeline and the ORM policy boundary.
func newWorkspace(s *schema.Schema, db *store.DB, reg *obs.Registry) *Workspace {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cache := verify.NewCache(0)
	stats := &verify.Stats{}
	for _, c := range statsCounters {
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.get(stats.Snapshot())) })
	}
	reg.CounterFunc("scooter_verify_cache_evictions_total",
		"Verdicts evicted from the bounded verdict cache.",
		func() float64 { return float64(cache.Evictions()) })
	conn := orm.Open(s, db)
	ormM := obs.NewORMMetrics(reg)
	conn.SetMetrics(ormM)
	return &Workspace{
		db:              db,
		conn:            conn,
		reg:             reg,
		cache:           cache,
		stats:           stats,
		verifyMetrics:   obs.NewVerifyMetrics(reg),
		ormMetrics:      ormM,
		backfillMetrics: obs.NewBackfillMetrics(reg),
	}
}

// Metrics returns the workspace's metrics registry, for embedding into an
// application's own exposition or for registering extra collectors.
func (w *Workspace) Metrics() *obs.Registry { return w.reg }

// MetricsHandler returns an http.Handler serving the workspace's metrics
// in the Prometheus text format — mount it at /metrics.
func (w *Workspace) MetricsHandler() http.Handler { return obs.Handler(w.reg) }

// fillObsDefaults points unset observability options at the workspace's
// own cache, stats and metric sets, so Migrate calls (online backfills
// included) are observed without callers having to wire anything. A
// caller's own Stats replaces the workspace's, so its counters then stay
// out of the registry.
func (w *Workspace) fillObsDefaults(opts *Options) {
	if opts.Cache == nil {
		opts.Cache = w.cache
	}
	if opts.Stats == nil {
		opts.Stats = w.stats
	}
	if opts.Metrics == nil {
		opts.Metrics = w.verifyMetrics
	}
	if opts.Backfill == nil {
		opts.Backfill = w.backfillMetrics
	}
}

// NewWorkspace returns a workspace with an empty specification and a fresh
// in-memory database.
func NewWorkspace() *Workspace {
	return newWorkspace(schema.New(), store.Open(), nil)
}

// DurabilityOptions tunes the write-ahead log of a durable workspace.
type DurabilityOptions = wal.Options

// OpenDurable opens a workspace backed by a write-ahead log in dir,
// recovering whatever a previous process made durable: the log is replayed
// over the latest snapshot, torn tails are truncated, and every later
// mutation is logged before it is acknowledged. The specification starts
// empty; replay the migration history with MigrateNamed — already-applied
// scripts only advance the schema, a half-applied one resumes — and the
// workspace converges to the pre-crash state.
func OpenDurable(dir string, opts DurabilityOptions) (*Workspace, error) {
	// The registry exists before the log opens so recovery itself is
	// captured (scooter_wal_recovery_seconds, recovered record count).
	reg := obs.NewRegistry()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewWALMetrics(reg)
	}
	l, db, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	w := newWorkspace(schema.New(), db, reg)
	w.wal = l
	return w, nil
}

// Close stops the replication server (if any) and flushes and detaches
// the write-ahead log (if any). The workspace remains usable in memory,
// but writes are no longer durable (and report an error through the ORM).
// Close is idempotent and safe under concurrent callers: the first call
// does the work, every later call returns nil.
func (w *Workspace) Close() error {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	if w.repl != nil {
		first = w.repl.Close()
	}
	if w.wal != nil {
		if err := w.wal.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Sync forces an fsync of the write-ahead log; a no-op without one (or
// after Close). Useful under relaxed DurabilityOptions (SyncEvery > 1)
// before acknowledging externally visible state. Like Close, it is safe
// under concurrent callers: a Sync racing a Close never observes a
// half-closed log.
func (w *Workspace) Sync() error {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.closed || w.wal == nil {
		return nil
	}
	return w.wal.Sync()
}

// Compact folds the write-ahead log into a fresh snapshot; a no-op without
// one (or after Close). The log also compacts itself once it passes
// DurabilityOptions.CompactAfterBytes.
func (w *Workspace) Compact() error {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.closed || w.wal == nil {
		return nil
	}
	return w.wal.Compact()
}

// Replayed reports how many log records recovery replayed when the
// workspace was opened (0 without a write-ahead log).
func (w *Workspace) Replayed() int {
	if w.wal == nil {
		return 0
	}
	return w.wal.Replayed()
}

// LoadSpec returns a workspace whose specification is parsed from Scooter_p
// source — e.g. a previously saved SpecText.
func LoadSpec(src string) (*Workspace, error) {
	f, err := parser.ParsePolicyFile(src)
	if err != nil {
		return nil, err
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		return nil, err
	}
	return newWorkspace(s, store.Open(), nil), nil
}

// SpecText renders the current authoritative specification as Scooter_p
// source. Scooter maintains this file automatically; users never edit it.
func (w *Workspace) SpecText() string { return specfmt.Format(w.conn.Schema()) }

// Migrate verifies a Scooter_m script against the current specification
// and, when safe, executes it against the database and updates the
// specification. Unsafe migrations return an *UnsafeError with a
// counterexample; nothing executes.
func (w *Workspace) Migrate(src string) error {
	w.migMu.Lock()
	defer w.migMu.Unlock()
	script, err := parser.ParseMigration(src)
	if err != nil {
		return err
	}
	opts := migrate.DefaultOptions()
	w.fillObsDefaults(&opts)
	after, err := migrate.VerifyAndExecute(w.conn.Schema(), script, w.db, opts)
	if err != nil {
		return err
	}
	return migrate.Publish(w.conn, after)
}

// Verify checks a migration script without executing it, returning the
// plan (with per-command reports) or the verification failure.
func (w *Workspace) Verify(src string) (*Plan, error) {
	script, err := parser.ParseMigration(src)
	if err != nil {
		return nil, err
	}
	opts := migrate.DefaultOptions()
	w.fillObsDefaults(&opts)
	return migrate.Verify(w.conn.Schema(), script, opts)
}

// AsPrinc returns a handle performing operations on behalf of p.
func (w *Workspace) AsPrinc(p Principal) *Princ { return w.conn.AsPrinc(p) }

// SetEnforcement toggles runtime policy enforcement (debug escape hatch,
// paper §6.2).
func (w *Workspace) SetEnforcement(on bool) { w.conn.SetEnforcement(on) }

// GenerateORM emits a typed Go ORM package for the current specification.
// Schema changes surface as compile-time type errors in code using the
// generated package, mirroring the paper's generated Rust ORM.
func (w *Workspace) GenerateORM(pkgName string) (string, error) {
	return gen.Generate(w.conn.Schema(), pkgName)
}

// Models lists the model names in the current specification.
func (w *Workspace) Models() []string {
	s := w.conn.Schema()
	names := make([]string, 0, len(s.Models))
	for _, m := range s.Models {
		names = append(names, m.Name)
	}
	return names
}

// StaticPrincipals lists the declared static principals.
func (w *Workspace) StaticPrincipals() []string {
	return append([]string(nil), w.conn.Schema().Statics...)
}

// InsertRaw bypasses policy checks to seed data (test fixtures and
// benchmark setup); application code should use AsPrinc(...).Insert.
func (w *Workspace) InsertRaw(model string, fields Doc) ID {
	return w.db.Collection(model).Insert(fields)
}

// CheckPolicyStrictness exposes Sidecar's core check directly: it proves
// that newPolicy (source text) is at least as strict as oldPolicy for an
// operation on model, returning a counterexample otherwise.
func (w *Workspace) CheckPolicyStrictness(model, oldPolicy, newPolicy string) (*Counterexample, error) {
	s := w.conn.Schema()
	pOld, err := parsePolicyFor(s, model, oldPolicy)
	if err != nil {
		return nil, err
	}
	pNew, err := parsePolicyFor(s, model, newPolicy)
	if err != nil {
		return nil, err
	}
	res, err := verify.New(s, nil).CheckStrictness(model, pOld, pNew)
	if err != nil {
		return nil, err
	}
	if res.Verdict == verify.Violation {
		return res.Counterexample, nil
	}
	if res.Verdict == verify.Inconclusive {
		if res.Why != nil {
			return nil, fmt.Errorf("scooter: verifier was inconclusive: %v", res.Why)
		}
		return nil, fmt.Errorf("scooter: verifier was inconclusive (policy may use undecidable features, §6.1)")
	}
	return nil, nil
}

func parsePolicyFor(s *schema.Schema, model, src string) (ast.Policy, error) {
	p, err := parser.ParsePolicy(src)
	if err != nil {
		return ast.Policy{}, err
	}
	if err := typer.New(s).CheckPolicy(model, p); err != nil {
		return ast.Policy{}, err
	}
	return p, nil
}

// Opt is a typed optional used by generated ORM code for Option(T) fields.
type Opt[T any] struct {
	Present bool
	Val     T
}

// SomeOpt returns a present Opt.
func SomeOpt[T any](v T) Opt[T] { return Opt[T]{Present: true, Val: v} }

// NoneOpt returns an absent Opt.
func NoneOpt[T any]() Opt[T] { return Opt[T]{} }

// EnsureIndex installs a hash index on model.field; equality queries
// (including the Find probes inside policy evaluation) then skip the
// collection scan. Indexes are maintained automatically across inserts,
// updates, deletes, and migrations.
func (w *Workspace) EnsureIndex(model, field string) {
	w.db.Collection(model).EnsureIndex(field)
}

// MigrateNamed applies a named migration exactly once, the way production
// migration tools do: the database carries a journal of applied scripts, a
// re-run of an applied script is a no-op (returning applied=false), and a
// *different* script under an already-used name is rejected so applied
// history is never silently rewritten.
//
// On a durable workspace the journal entry advances command by command
// through the write-ahead log, so a process killed mid-migration resumes
// at the first unapplied command on the next run. Re-running an applied
// script against a freshly recovered workspace advances the specification
// to include it, which is how a migration history replays after recovery.
func (w *Workspace) MigrateNamed(name, src string) (bool, error) {
	return w.MigrateNamedOpts(name, src, migrate.DefaultOptions())
}

// MigrateNamedOpts is MigrateNamed with explicit options (e.g. an injected
// Clock for deterministic journal timestamps, or Online for a batched
// backfill that lets foreground traffic interleave).
func (w *Workspace) MigrateNamedOpts(name, src string, opts Options) (bool, error) {
	w.migMu.Lock()
	defer w.migMu.Unlock()
	if w.journaled[name] {
		// Applied earlier in this session: the live schema already has its
		// effects, so only classify (the conflict check must still bite).
		if migrate.NewJournal(w.db).Check(name, src) == migrate.StatusConflict {
			return false, &migrate.ErrJournalConflict{Name: name}
		}
		return false, nil
	}
	w.fillObsDefaults(&opts)
	applied, err := migrate.Apply(w.conn, name, src, opts)
	if err != nil {
		return false, err
	}
	if w.journaled == nil {
		w.journaled = map[string]bool{}
	}
	w.journaled[name] = true
	return applied, nil
}

// AppliedMigrations lists the journal of named migrations run against this
// workspace's database.
func (w *Workspace) AppliedMigrations() []migrate.JournalEntry {
	return migrate.NewJournal(w.db).Entries()
}

// workspaceState is the serialised form of a workspace: the authoritative
// specification plus a binary database snapshot (base64 in the JSON).
type workspaceState struct {
	Spec string `json:"spec"`
	DB   []byte `json:"db"`
}

// SaveState serialises the workspace — specification and database — so a
// process can stop and later resume exactly where it left off (including
// the migration journal, which lives in the database).
func (w *Workspace) SaveState(out io.Writer) error {
	var db bytes.Buffer
	if err := w.db.Snapshot(&db); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(workspaceState{Spec: w.SpecText(), DB: db.Bytes()})
}

// LoadState restores a workspace saved with SaveState.
func LoadState(in io.Reader) (*Workspace, error) {
	var state workspaceState
	if err := json.NewDecoder(in).Decode(&state); err != nil {
		return nil, fmt.Errorf("scooter: corrupt workspace state: %w", err)
	}
	w, err := LoadSpec(state.Spec)
	if err != nil {
		return nil, err
	}
	db, err := store.Restore(bytes.NewReader(state.DB))
	if err != nil {
		return nil, err
	}
	w.db = db
	w.conn = orm.Open(w.conn.Schema(), db)
	w.conn.SetMetrics(w.ormMetrics)
	return w, nil
}
