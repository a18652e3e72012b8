// Package migrate implements the Scooter migration pipeline (paper §3.2):
// each command of a migration script is type-checked against the
// schema-so-far, verified safe by Sidecar, and its effect recorded on an
// in-memory schema. Only when the whole script verifies does anything
// execute against the database — so failed verification never requires a
// rollback.
package migrate

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scooter/internal/ast"
	"scooter/internal/dataflow"
	"scooter/internal/equiv"
	"scooter/internal/obs"
	"scooter/internal/schema"
	"scooter/internal/smt/limits"
	"scooter/internal/store"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// Options configures verification.
type Options struct {
	// TrackEquivalences enables prior-definition tracking (§6.4). On by
	// default via DefaultOptions.
	TrackEquivalences bool
	// SkipVerification applies schema effects without strictness proofs;
	// used by trusted bootstrap migrations in tests and benchmarks.
	SkipVerification bool
	// SolverRounds overrides the per-query SMT round budget
	// (verify.DefaultSolverRounds when 0).
	SolverRounds int
	// Cache, when set and VerdictDB is not, memoizes strictness verdicts so
	// a whole migration history (or a CI fleet replaying many histories)
	// shares one verdict cache. See verify.NewCache.
	Cache *verify.Cache
	// Stats, when set, accumulates verification counters across commands.
	Stats *verify.Stats
	// Sequential runs the deferred strictness proofs one at a time instead
	// of overlapping them; results are identical either way (proofs are
	// independent and reported in command order).
	Sequential bool
	// Context, when set, cancels verification: proofs still pending when it
	// is done come back Inconclusive (never an error or a panic), so a
	// Ctrl-C or a global -timeout yields a readable report.
	Context context.Context
	// ProofTimeout bounds the wall clock of each deferred strictness
	// check: one budget covers that check's per-principal-kind proofs
	// together, which run one after another. A check that exceeds it
	// yields Inconclusive with a deadline reason; sibling checks are
	// unaffected.
	ProofTimeout time.Duration
	// SolverConflicts, when positive, caps SAT conflicts per query
	// (deterministic alternative to ProofTimeout).
	SolverConflicts int64
	// Clock supplies journal timestamps for Apply; nil means time.Now.
	// Injecting it makes JournalEntry.AppliedAt — and therefore the exact
	// bytes a migration writes to the store and its WAL — deterministic.
	// now() in migration expressions evaluates to the same timestamp, so
	// a crash-resumed run re-executes unapplied commands byte-identically.
	Clock func() time.Time
	// Metrics, when set, observes each strictness proof in the workspace
	// registry.
	Metrics *obs.VerifyMetrics
	// Trace, when set, receives one JSON event per strictness proof.
	// Combine with Sequential for a deterministic event order.
	Trace *obs.Tracer
	// VerdictDB, when set, is the persistent verdict store and replaces
	// Cache: verdicts are looked up there and appended after every
	// definitive proof, so a later run (or another machine sharing the
	// file) skips the solver entirely for already-proved queries.
	VerdictDB *verify.VerdictDB

	// Online makes Apply execute backfilling commands (AddField populate)
	// in bounded, rate-limited batches instead of one stop-the-world sweep
	// over the collection. Each batch is durable on its own and followed by
	// a journal watermark checkpoint, so a crash resumes mid-command at the
	// first unswept document, and foreground reads and writes interleave
	// between batches. During each backfill a dual-read window on the
	// connection migrates not-yet-swept documents on access; the final
	// state is byte-identical to the stop-the-world result because both
	// compute the new field from the document's window-start shape exactly
	// once (the sweep skips documents the window already migrated).
	Online bool
	// BatchSize bounds the number of documents per online backfill batch
	// (DefaultBatchSize when 0).
	BatchSize int
	// Rate caps online backfill throughput in documents per second
	// (0 = unpaced). Pacing settles the elapsed-vs-target gap once per
	// batch, after the batch's updates are logged, so a low rate stretches
	// the gaps between durability units, never a unit itself.
	Rate int
	// Backfill, when set, observes per-batch progress (docs populated,
	// docs skipped, watermark, remaining) in the workspace registry.
	Backfill *obs.BackfillMetrics
	// OnBatch runs after each batch's watermark checkpoint is durable,
	// while no store lock is held. Tests use it to interleave deterministic
	// foreground traffic at batch boundaries, and benchmarks use it to
	// time the gaps between batches.
	OnBatch func(model, field string, watermark store.ID, remaining int) error
}

// DefaultBatchSize is the online backfill batch size when
// Options.BatchSize is zero: large enough to amortise the per-batch
// journal checkpoint, small enough that a foreground operation waiting on
// a collection lock waits for at most one batch of clones.
const DefaultBatchSize = 256

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{TrackEquivalences: true}
}

// CommandReport records the verification outcome of one command.
type CommandReport struct {
	Index   int
	Command ast.Command
	// Weakened notes an explicit Weaken* command with its reason.
	Weakened bool
	Reason   string
	// Flows lists the dataflow edges checked for an AddField.
	Flows []verify.FieldFlow
}

// Plan is a fully verified migration, ready to execute.
type Plan struct {
	// Before is the schema the script was verified against.
	Before *schema.Schema
	// After is the schema once every command is applied.
	After *schema.Schema
	// Script holds the verified commands in order.
	Script *ast.MigrationScript
	// Reports collects per-command outcomes.
	Reports []CommandReport
}

// UnsafeError reports a command that failed verification, with the
// counterexample when one exists.
type UnsafeError struct {
	Index   int
	Command ast.Command
	Detail  string
	Result  *verify.Result
	Flow    *verify.FieldFlow
}

func (e *UnsafeError) Error() string {
	msg := fmt.Sprintf("command %d (%s): %s", e.Index+1, e.Command.Name(), e.Detail)
	if e.Result != nil && e.Result.Counterexample != nil {
		msg += "\n" + e.Result.Counterexample.String()
	}
	return msg
}

// Verify checks an entire migration script against a schema, returning an
// executable plan or the first verification failure.
//
// The pipeline is staged for throughput: the cheap structural and type
// checks of each command run sequentially against the schema-so-far (they
// establish the schema each later command verifies against), while the
// expensive SMT-backed strictness and dataflow proofs are captured as
// deferred checks over per-command snapshots and solved concurrently by a
// worker pool bounded by GOMAXPROCS. Reports stay deterministic: deferred
// failures are examined in command order, so the error returned is the
// same one sequential verification would have produced first.
func Verify(before *schema.Schema, script *ast.MigrationScript, opts Options) (*Plan, error) {
	// applyCommand is copy-on-write at model granularity, so a shallow
	// snapshot suffices: before's models are never mutated, and Plan.After
	// shares the unchanged ones.
	cur := before.Snapshot()
	defs := equiv.New()
	defs.SetEnabled(opts.TrackEquivalences)
	plan := &Plan{Before: before, Script: script}

	var deferred []deferredCheck
	var structuralErr error
	for i, cmd := range script.Commands {
		report, checks, err := verifyCommand(cur, defs, i, cmd, opts)
		if err != nil {
			structuralErr = err
			break
		}
		deferred = append(deferred, checks...)
		plan.Reports = append(plan.Reports, *report)
		if err := applyCommand(cur, defs, cmd); err != nil {
			structuralErr = &UnsafeError{Index: i, Command: cmd, Detail: err.Error()}
			break
		}
	}
	// Deferred proofs cover only commands that structurally verified
	// before any structural failure, so an earlier proof failure outranks
	// a later structural one — matching sequential order.
	if err := runDeferred(deferred, opts); err != nil {
		return nil, err
	}
	if structuralErr != nil {
		return nil, structuralErr
	}
	plan.After = cur
	return plan, nil
}

// deferredCheck is one SMT-backed proof obligation, closed over the
// snapshot of schema and prior definitions current at its command. The
// registration order of checks equals sequential verification order. The
// limits checker carries the proof's deadline/cancellation budget (nil
// when none is configured).
type deferredCheck func(*limits.Checker) error

// runDeferred solves the deferred proof obligations with a bounded worker
// pool and returns the earliest failure in registration (command) order.
// Each proof gets its own limits checker, so a timed-out proof never takes
// down its siblings; a panicking proof is contained to an error for its
// command rather than crashing the pool.
func runDeferred(checks []deferredCheck, opts Options) error {
	if len(checks) == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if opts.Sequential || workers < 1 {
		workers = 1
	}
	if workers > len(checks) {
		workers = len(checks)
	}
	errs := make([]error, len(checks))
	if workers == 1 {
		for i, check := range checks {
			errs[i] = runCheck(check, opts)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(checks) {
						return
					}
					errs[i] = runCheck(checks[i], opts)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCheck runs one deferred proof under a fresh limits checker. The
// per-proof deadline starts when the proof starts, not when it was
// registered, so queueing delay does not eat the budget.
func runCheck(check deferredCheck, opts Options) (err error) {
	var lc *limits.Checker
	if opts.Context != nil || opts.ProofTimeout > 0 {
		lc = limits.New(opts.Context)
		if opts.ProofTimeout > 0 {
			lc = lc.WithTimeout(opts.ProofTimeout)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: strictness proof panicked: %v", r)
		}
	}()
	return check(lc)
}

// newChecker builds a verify.Checker configured by opts.
func newChecker(s *schema.Schema, defs *equiv.Defs, opts Options) *verify.Checker {
	c := verify.New(s, defs)
	if opts.SolverRounds > 0 {
		c.SolverRounds = opts.SolverRounds
	}
	c.SolverConflicts = opts.SolverConflicts
	c.Cache = opts.Cache
	c.Stats = opts.Stats
	c.Metrics = opts.Metrics
	c.Trace = opts.Trace
	c.Persist = opts.VerdictDB
	return c
}

// withLimits attaches a proof's limits checker to a shallow copy of the
// command's verify.Checker: the checker may be shared by sibling proofs
// (UpdateFieldPolicy read+write), so the per-proof budget must not be
// written into the shared struct.
func withLimits(c *verify.Checker, lc *limits.Checker) *verify.Checker {
	ck := *c
	ck.Limits = lc
	return &ck
}

// inconclusiveDetail renders an exhausted strictness proof for UnsafeError,
// naming the budget that ran out.
func inconclusiveDetail(what string, res *verify.Result) string {
	msg := "strictness proof for " + what + " is inconclusive"
	if res.Why != nil {
		msg += ": " + res.Why.Error()
	}
	return msg + " (raise the solver budget or timeout and retry, or use a Weaken* command to weaken intentionally)"
}

// verifyCommand type-checks a single command against the schema-so-far and
// registers its SMT proof obligations as deferred checks. Structural
// failures return an error immediately; deferred checks close over clones
// of the schema and definition tracker, so they may run after later
// commands have advanced the live copies.
func verifyCommand(cur *schema.Schema, defs *equiv.Defs, idx int, cmd ast.Command, opts Options) (*CommandReport, []deferredCheck, error) {
	report := &CommandReport{Index: idx, Command: cmd}
	var checks []deferredCheck
	fail := func(detail string, res *verify.Result, flow *verify.FieldFlow) error {
		return &UnsafeError{Index: idx, Command: cmd, Detail: detail, Result: res, Flow: flow}
	}
	tc := typer.New(cur)

	switch c := cmd.(type) {
	case *ast.CreateModel:
		if cur.Model(c.Model.Name) != nil {
			return nil, nil, fail(fmt.Sprintf("model %s already exists", c.Model.Name), nil, nil)
		}
		if cur.HasStatic(c.Model.Name) {
			return nil, nil, fail(fmt.Sprintf("name %s is already a static principal", c.Model.Name), nil, nil)
		}
		// Policies of a new model may reference the model itself; check
		// them against a schema that already includes it. Only the new
		// model's policies need checking: pre-existing policies cannot
		// reference a model that did not exist when they were verified.
		trial := cur.Snapshot()
		newModel := modelFromDecl(c.Model)
		if err := trial.AddModel(newModel); err != nil {
			return nil, nil, fail(err.Error(), nil, nil)
		}
		ttc := typer.New(trial)
		if err := ttc.CheckPolicy(newModel.Name, newModel.Create); err != nil {
			return nil, nil, fail("create policy: "+err.Error(), nil, nil)
		}
		if err := ttc.CheckPolicy(newModel.Name, newModel.Delete); err != nil {
			return nil, nil, fail("delete policy: "+err.Error(), nil, nil)
		}
		for _, f := range newModel.Fields {
			for _, mt := range f.Type.ReferencedModels() {
				if trial.Model(mt) == nil {
					return nil, nil, fail(fmt.Sprintf("field %s type references unknown model %s", f.Name, mt), nil, nil)
				}
			}
			if err := ttc.CheckPolicy(newModel.Name, f.Read); err != nil {
				return nil, nil, fail(fmt.Sprintf("%s read policy: %v", f.Name, err), nil, nil)
			}
			if err := ttc.CheckPolicy(newModel.Name, f.Write); err != nil {
				return nil, nil, fail(fmt.Sprintf("%s write policy: %v", f.Name, err), nil, nil)
			}
		}

	case *ast.DeleteModel:
		if cur.Model(c.ModelName) == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if refs := cur.PoliciesReferencingModel(c.ModelName); len(refs) > 0 {
			return nil, nil, fail(fmt.Sprintf("model %s is referenced by %s", c.ModelName, refs[0]), nil, nil)
		}

	case *ast.AddField:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if m.Field(c.Field.Name) != nil || c.Field.Name == schema.IDFieldName {
			return nil, nil, fail(fmt.Sprintf("field %s.%s already exists", c.ModelName, c.Field.Name), nil, nil)
		}
		// Policies of the new field may reference the field itself.
		trial := cur.Snapshot()
		tm := trial.CopyModel(c.ModelName)
		tm.Fields = append(tm.Fields, &schema.Field{
			Name: c.Field.Name, Type: c.Field.Type, Read: c.Field.Read, Write: c.Field.Write,
		})
		ttc := typer.New(trial)
		for _, mt := range c.Field.Type.ReferencedModels() {
			if trial.Model(mt) == nil {
				return nil, nil, fail(fmt.Sprintf("field type references unknown model %s", mt), nil, nil)
			}
		}
		if err := ttc.CheckPolicy(c.ModelName, c.Field.Read); err != nil {
			return nil, nil, fail("read policy: "+err.Error(), nil, nil)
		}
		if err := ttc.CheckPolicy(c.ModelName, c.Field.Write); err != nil {
			return nil, nil, fail("write policy: "+err.Error(), nil, nil)
		}
		if err := tc.CheckInitFn(c.ModelName, c.Init, c.Field.Type); err != nil {
			return nil, nil, fail("initialiser: "+err.Error(), nil, nil)
		}
		if !opts.SkipVerification {
			flows := dataflow.Sources(c.Init, c.ModelName, c.Field.Name)
			report.Flows = flows
			field := &schema.Field{Name: c.Field.Name, Type: c.Field.Type, Read: c.Field.Read, Write: c.Field.Write}
			// The initialiser defines the new field in terms of existing
			// ones; that definitional equality is available to the
			// command's own verification (paper §4, "Using Prior
			// Definitions") — e.g. adminLevel's read policy
			// Find({adminLevel: 2}) verifies against isAdmin's policy via
			// the initialiser u -> if u.isAdmin then 2 else 0.
			defs.Record(c.ModelName, c.Field.Name, c.Init)
			// trial is local to this command and never mutated again; the
			// definition tracker advances with the script, so clone it.
			checker := newChecker(trial, defs.Clone(), opts)
			model, init := c.ModelName, c.Init
			checks = append(checks, func(lc *limits.Checker) error {
				leak, err := withLimits(checker, lc).CheckAddFieldLeaks(model, field, init, flows)
				if err != nil {
					return fail(err.Error(), nil, nil)
				}
				if leak != nil {
					if leak.Result.Verdict == verify.Inconclusive {
						return fail(inconclusiveDetail(
							fmt.Sprintf("dataflow %s -> %s.%s", leak.Flow.SrcModel+"."+leak.Flow.SrcField, model, field.Name),
							leak.Result), leak.Result, &leak.Flow)
					}
					return fail(
						fmt.Sprintf("data leak: %s flows to %s.%s but has a stricter read policy",
							leak.Flow.SrcModel+"."+leak.Flow.SrcField, model, field.Name),
						leak.Result, &leak.Flow)
				}
				return nil
			})
		}

	case *ast.RemoveField:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if m.Field(c.FieldName) == nil {
			return nil, nil, fail(fmt.Sprintf("field %s.%s does not exist", c.ModelName, c.FieldName), nil, nil)
		}
		if refs := cur.PoliciesReferencingField(c.ModelName, c.FieldName); len(refs) > 0 {
			return nil, nil, fail(fmt.Sprintf("field %s.%s is referenced by policy %s", c.ModelName, c.FieldName, refs[0]), nil, nil)
		}

	case *ast.UpdatePolicy:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if err := tc.CheckPolicy(c.ModelName, c.NewPolicy); err != nil {
			return nil, nil, fail(err.Error(), nil, nil)
		}
		if !opts.SkipVerification {
			old := m.Create
			if c.Op == ast.OpDelete {
				old = m.Delete
			}
			checker := newChecker(cur.Snapshot(), defs.Clone(), opts)
			model, op, newPol := c.ModelName, c.Op, c.NewPolicy
			checks = append(checks, func(lc *limits.Checker) error {
				res, err := withLimits(checker, lc).CheckStrictness(model, old, newPol)
				if err != nil {
					return fail(err.Error(), nil, nil)
				}
				if res.Verdict == verify.Inconclusive {
					return fail(inconclusiveDetail(fmt.Sprintf("the %s policy", op), res), res, nil)
				}
				if res.Verdict != verify.Safe {
					return fail(
						fmt.Sprintf("new %s policy is not at least as strict as the old one (use WeakenPolicy to weaken intentionally)", op),
						res, nil)
				}
				return nil
			})
		}

	case *ast.WeakenPolicy:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if err := tc.CheckPolicy(c.ModelName, c.NewPolicy); err != nil {
			return nil, nil, fail(err.Error(), nil, nil)
		}
		if c.Reason == "" {
			return nil, nil, fail("WeakenPolicy requires a reason string for auditability", nil, nil)
		}
		report.Weakened = true
		report.Reason = c.Reason

	case *ast.UpdateFieldPolicy:
		f, failErr := fieldFor(cur, c.ModelName, c.FieldName, fail)
		if failErr != nil {
			return nil, nil, failErr
		}
		// One snapshot serves both the read- and write-policy proofs.
		var checker *verify.Checker
		for _, upd := range []struct {
			pol *ast.Policy
			old ast.Policy
			op  ast.Operation
		}{{c.Read, f.Read, ast.OpRead}, {c.Write, f.Write, ast.OpWrite}} {
			if upd.pol == nil {
				continue
			}
			if err := tc.CheckPolicy(c.ModelName, *upd.pol); err != nil {
				return nil, nil, fail(err.Error(), nil, nil)
			}
			if opts.SkipVerification {
				continue
			}
			if checker == nil {
				checker = newChecker(cur.Snapshot(), defs.Clone(), opts)
			}
			ck, model, field := checker, c.ModelName, c.FieldName
			old, newPol, op := upd.old, *upd.pol, upd.op
			checks = append(checks, func(lc *limits.Checker) error {
				res, err := withLimits(ck, lc).CheckStrictness(model, old, newPol)
				if err != nil {
					return fail(err.Error(), nil, nil)
				}
				if res.Verdict == verify.Inconclusive {
					return fail(inconclusiveDetail(fmt.Sprintf("the %s policy of %s.%s", op, model, field), res), res, nil)
				}
				if res.Verdict != verify.Safe {
					return fail(
						fmt.Sprintf("new %s policy for %s.%s is not at least as strict as the old one (use WeakenFieldPolicy to weaken intentionally)",
							op, model, field),
						res, nil)
				}
				return nil
			})
		}

	case *ast.WeakenFieldPolicy:
		_, failErr := fieldFor(cur, c.ModelName, c.FieldName, fail)
		if failErr != nil {
			return nil, nil, failErr
		}
		for _, pol := range []*ast.Policy{c.Read, c.Write} {
			if pol == nil {
				continue
			}
			if err := tc.CheckPolicy(c.ModelName, *pol); err != nil {
				return nil, nil, fail(err.Error(), nil, nil)
			}
		}
		if c.Reason == "" {
			return nil, nil, fail("WeakenFieldPolicy requires a reason string for auditability", nil, nil)
		}
		report.Weakened = true
		report.Reason = c.Reason

	case *ast.AddStaticPrincipal:
		if cur.HasStatic(c.PrincipalName) || cur.Model(c.PrincipalName) != nil {
			return nil, nil, fail(fmt.Sprintf("name %s is already in use", c.PrincipalName), nil, nil)
		}

	case *ast.RemoveStaticPrincipal:
		if !cur.HasStatic(c.PrincipalName) {
			return nil, nil, fail(fmt.Sprintf("static principal %s does not exist", c.PrincipalName), nil, nil)
		}
		if refs := cur.PoliciesReferencingStatic(c.PrincipalName); len(refs) > 0 {
			return nil, nil, fail(fmt.Sprintf("static principal %s is used by policy %s", c.PrincipalName, refs[0]), nil, nil)
		}

	case *ast.AddPrincipal:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if m.Principal {
			return nil, nil, fail(fmt.Sprintf("model %s is already a principal", c.ModelName), nil, nil)
		}

	case *ast.RemovePrincipal:
		m := cur.Model(c.ModelName)
		if m == nil {
			return nil, nil, fail(fmt.Sprintf("model %s does not exist", c.ModelName), nil, nil)
		}
		if !m.Principal {
			return nil, nil, fail(fmt.Sprintf("model %s is not a principal", c.ModelName), nil, nil)
		}
		// Removing principal-ness invalidates policies that use this
		// model's ids as principals; require none exist. Conservatively,
		// any policy mentioning the model blocks removal.
		if refs := cur.PoliciesReferencingModel(c.ModelName); len(refs) > 0 {
			return nil, nil, fail(fmt.Sprintf("model %s is used as a principal by %s", c.ModelName, refs[0]), nil, nil)
		}

	default:
		return nil, nil, fail(fmt.Sprintf("unsupported command %T", cmd), nil, nil)
	}
	return report, checks, nil
}

func fieldFor(cur *schema.Schema, model, field string, fail func(string, *verify.Result, *verify.FieldFlow) error) (*schema.Field, error) {
	m := cur.Model(model)
	if m == nil {
		return nil, fail(fmt.Sprintf("model %s does not exist", model), nil, nil)
	}
	f := m.Field(field)
	if f == nil {
		return nil, fail(fmt.Sprintf("field %s.%s does not exist", model, field), nil, nil)
	}
	return f, nil
}

// applyCommand records the effect of a verified command on the schema and
// the definition tracker. Mutations are copy-on-write at model granularity:
// a touched model is replaced by a fresh copy, never edited in place, so
// snapshots taken for deferred proofs stay frozen at their command.
func applyCommand(cur *schema.Schema, defs *equiv.Defs, cmd ast.Command) error {
	switch c := cmd.(type) {
	case *ast.CreateModel:
		return cur.AddModel(modelFromDecl(c.Model))
	case *ast.DeleteModel:
		defs.InvalidateModel(c.ModelName)
		return cur.RemoveModel(c.ModelName)
	case *ast.AddField:
		m := cur.CopyModel(c.ModelName)
		m.Fields = append(m.Fields, &schema.Field{
			Name: c.Field.Name, Type: c.Field.Type, Read: c.Field.Read, Write: c.Field.Write,
		})
		defs.Record(c.ModelName, c.Field.Name, c.Init)
		return nil
	case *ast.RemoveField:
		m := cur.CopyModel(c.ModelName)
		defs.Invalidate(c.ModelName, c.FieldName)
		for i, f := range m.Fields {
			if f.Name == c.FieldName {
				m.Fields = append(m.Fields[:i], m.Fields[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("field %s.%s vanished", c.ModelName, c.FieldName)
	case *ast.UpdatePolicy:
		return setModelPolicy(cur, c.ModelName, c.Op, c.NewPolicy)
	case *ast.WeakenPolicy:
		return setModelPolicy(cur, c.ModelName, c.Op, c.NewPolicy)
	case *ast.UpdateFieldPolicy:
		return setFieldPolicies(cur, c.ModelName, c.FieldName, c.Read, c.Write)
	case *ast.WeakenFieldPolicy:
		return setFieldPolicies(cur, c.ModelName, c.FieldName, c.Read, c.Write)
	case *ast.AddStaticPrincipal:
		return cur.AddStatic(c.PrincipalName)
	case *ast.RemoveStaticPrincipal:
		return cur.RemoveStatic(c.PrincipalName)
	case *ast.AddPrincipal:
		cur.CopyModel(c.ModelName).Principal = true
		return nil
	case *ast.RemovePrincipal:
		cur.CopyModel(c.ModelName).Principal = false
		return nil
	}
	return fmt.Errorf("unsupported command %T", cmd)
}

func setModelPolicy(cur *schema.Schema, model string, op ast.Operation, p ast.Policy) error {
	m := cur.CopyModel(model)
	if m == nil {
		return fmt.Errorf("model %s vanished", model)
	}
	switch op {
	case ast.OpCreate:
		m.Create = p
	case ast.OpDelete:
		m.Delete = p
	default:
		return fmt.Errorf("invalid model-level operation %s", op)
	}
	return nil
}

func setFieldPolicies(cur *schema.Schema, model, field string, read, write *ast.Policy) error {
	m := cur.CopyModel(model)
	if m == nil {
		return fmt.Errorf("model %s vanished", model)
	}
	f := m.Field(field)
	if f == nil {
		return fmt.Errorf("field %s.%s vanished", model, field)
	}
	if read != nil {
		f.Read = *read
	}
	if write != nil {
		f.Write = *write
	}
	return nil
}

func modelFromDecl(d *ast.ModelDecl) *schema.Model {
	m := &schema.Model{
		Name:      d.Name,
		Principal: d.Principal,
		Create:    d.Create,
		Delete:    d.Delete,
	}
	for _, f := range d.Fields {
		m.Fields = append(m.Fields, &schema.Field{
			Name: f.Name, Type: f.Type, Read: f.Read, Write: f.Write,
		})
	}
	return m
}
