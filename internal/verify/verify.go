// Package verify implements Sidecar's core checks: the policy strictness
// property (paper §4, Eq. 1) decided by refuting the leakage formula
// (Eq. 2) with the SMT solver, and counterexample construction when a
// migration is unsafe.
package verify

import (
	"fmt"
	"time"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/lower"
	"scooter/internal/obs"
	"scooter/internal/schema"
	"scooter/internal/smt/limits"
	"scooter/internal/smt/solver"
)

// Verdict classifies a strictness check.
type Verdict int

// Verdicts. Inconclusive arises when the solver exhausts a resource budget
// — refinement rounds, SAT conflicts, simplex pivots, or a wall-clock
// deadline (possible for policies using the undecidable features of §6.1,
// or under an aggressive -proof-timeout). The exhausted resource is
// reported in Result.Why.
const (
	Safe Verdict = iota
	Violation
	Inconclusive
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Violation:
		return "violation"
	default:
		return "inconclusive"
	}
}

// Result is the outcome of a strictness check.
type Result struct {
	Verdict Verdict
	// Kind is the principal case that violated strictness.
	Kind lower.PrincipalKind
	// Counterexample is set on Violation.
	Counterexample *Counterexample
	// Incomplete notes that bounded instantiation was used. The bound only
	// weakens the violation query (the negative-side universal is
	// instantiated over a finite pool), so a Safe verdict stays sound and
	// only a Violation's counterexample may be spurious.
	Incomplete bool
	// Why records which resource budget ran out when Verdict is
	// Inconclusive (nil for definitive verdicts).
	Why *limits.Exhausted
}

// DefaultSolverRounds is the per-query cap on the lazy SMT loop used when
// Checker.SolverRounds is not positive (no migrate.Options.SolverRounds,
// no sidecar -solver-rounds flag).
const DefaultSolverRounds = 20000

// Checker runs strictness checks against a schema. A Checker is safe for
// concurrent use as long as Schema and Defs are not mutated while checks
// run: per-query state lives in a fresh lowering context and solver, the
// Cache is internally locked, and Stats is atomic.
type Checker struct {
	Schema *schema.Schema
	// Defs carries the prior definitions of the current migration script.
	Defs *equiv.Defs
	// SolverRounds caps the lazy SMT loop per query
	// (DefaultSolverRounds when <= 0).
	SolverRounds int
	// SolverConflicts, when positive, caps SAT conflicts per query.
	SolverConflicts int64
	// Limits, when set, carries the deadline/cancellation budget for this
	// check. A nil checker never expires. Expiry yields Inconclusive, not
	// an error: a timed-out proof is an Unknown verdict, not a failure.
	Limits *limits.Checker
	// Cache, when set, is the proof's verdict store, keyed by the query's
	// canonical fingerprint (alpha-equivalent queries share an entry):
	// consulted before solving and written after every definitive
	// verdict. Violation entries retain the rendered counterexample.
	Cache *Cache
	// Stats, when set, accumulates store-lookup and solver counters.
	Stats *Stats
	// Metrics, when set, observes each proof (count, wall time, Unknown
	// reasons) in the workspace registry. Nil is a no-op sink.
	Metrics *obs.VerifyMetrics
	// Trace, when set, receives one ProofEvent per strictness proof; the
	// kinds of one check emit in principal-kind order.
	Trace *obs.Tracer
}

// New returns a checker. defs may be nil when no prior definitions apply.
func New(s *schema.Schema, defs *equiv.Defs) *Checker {
	if defs == nil {
		defs = equiv.New()
	}
	return &Checker{Schema: s, Defs: defs}
}

// CheckStrictness proves that pNew is at least as strict as pOld for an
// operation on the given model: ∀db,i. pNew(db,i) ⊆ pOld(db,i). A Violation
// result carries a counterexample principal and database.
func (c *Checker) CheckStrictness(model string, pOld, pNew ast.Policy) (*Result, error) {
	return c.checkFlowStrictness(model, pNew, model, pOld)
}

// CheckEquivalence proves two policies equal (each at least as strict as
// the other). Only tests call it.
func (c *Checker) CheckEquivalence(model string, p1, p2 ast.Policy) (bool, error) {
	r1, err := c.CheckStrictness(model, p1, p2)
	if err != nil {
		return false, err
	}
	if r1.Verdict != Safe {
		return false, nil
	}
	r2, err := c.CheckStrictness(model, p2, p1)
	if err != nil {
		return false, err
	}
	return r2.Verdict == Safe, nil
}

// checkFlowStrictness runs the leakage check between policies on possibly
// different models. One query is built per principal kind; the kinds are
// proved in order on the calling goroutine, and the first error or
// non-Safe verdict decides the check without proving the kinds after it.
// Concurrency lives one level up, across a migration's deferred checks.
func (c *Checker) checkFlowStrictness(dstModel string, dstRead ast.Policy, srcModel string, srcRead ast.Policy) (*Result, error) {
	incomplete := false
	for _, kind := range lower.PrincipalKinds(c.Schema) {
		res, err := c.checkKind(dstModel, dstRead, srcModel, srcRead, kind)
		if err != nil {
			return nil, err
		}
		if res.Verdict != Safe {
			return res, nil
		}
		incomplete = incomplete || res.Incomplete
	}
	return &Result{Verdict: Safe, Incomplete: incomplete}, nil
}

// checkKind builds and solves the leakage query for one principal kind.
func (c *Checker) checkKind(dstModel string, dstRead ast.Policy, srcModel string, srcRead ast.Policy, kind lower.PrincipalKind) (*Result, error) {
	start := time.Now()
	ctx := lower.NewContext(c.Schema, c.Defs)
	q, err := lower.BuildCrossLeakageQuery(ctx, dstModel, dstRead, srcModel, srcRead, kind)
	if err != nil {
		return nil, fmt.Errorf("lowering flow %s -> %s for principal kind %s: %w", srcModel, dstModel, kind, err)
	}
	var key CacheKey
	if c.Cache != nil || c.Trace != nil {
		key = QueryKey(q)
	}
	if res, ok := lookupVerdict(c.Cache, c.Stats, key); ok {
		c.observeProof(key, kind, &res, true, nil, start)
		return &res, nil
	}
	var res *Result
	defer func() { storeVerdict(c.Cache, key, res) }()
	if ex := c.Limits.Expired(); ex != nil {
		// The budget was gone before solving started; report it without
		// spinning up a solver.
		res = &Result{Verdict: Inconclusive, Kind: kind, Incomplete: true, Why: ex}
		c.observeProof(key, kind, res, false, nil, start)
		return res, nil
	}
	s := solver.New(q.B)
	s.MaxRounds = c.SolverRounds
	if s.MaxRounds <= 0 {
		s.MaxRounds = DefaultSolverRounds
	}
	s.MaxConflicts = c.SolverConflicts
	s.Limits = c.Limits
	s.Assert(q.Formula)
	status, serr := s.Check()
	conflicts, decisions, props := s.SATStats()
	c.Stats.recordSolve(s.Rounds, s.TheoryChecks, conflicts, decisions, props, s.SATRestarts())
	if serr != nil {
		return nil, fmt.Errorf("solving flow %s -> %s for principal kind %s: %w", srcModel, dstModel, kind, serr)
	}
	switch status {
	case solver.Unsat:
		res = &Result{Verdict: Safe, Incomplete: q.Incomplete}
	case solver.Unknown:
		res = &Result{Verdict: Inconclusive, Kind: kind, Incomplete: true, Why: s.Exhaustion()}
	case solver.Sat:
		ce := renderCounterexample(c.Schema, q, s.Model())
		res = &Result{Verdict: Violation, Kind: kind, Counterexample: ce, Incomplete: q.Incomplete}
	}
	c.observeProof(key, kind, res, false, s, start)
	return res, nil
}

// observeProof lands one finished proof in the metrics registry and the
// trace stream. solved is nil when no solver ran (cache hit or an expired
// budget short-circuited the proof).
func (c *Checker) observeProof(key CacheKey, kind lower.PrincipalKind, res *Result, cacheHit bool, solved *solver.Solver, start time.Time) {
	if c.Metrics == nil && c.Trace == nil {
		return
	}
	elapsed := time.Since(start)
	c.Metrics.ObserveProof(elapsed.Seconds())
	if res.Verdict == Inconclusive {
		c.Metrics.RecordUnknown(unknownReason(res.Why))
	}
	if c.Trace == nil {
		return
	}
	ev := obs.ProofEvent{
		Fingerprint: fmt.Sprintf("%016x%016x", key.Fp[0], key.Fp[1]),
		Kind:        kind.String(),
		Verdict:     res.Verdict.String(),
		CacheHit:    cacheHit,
		DurationNS:  elapsed.Nanoseconds(),
	}
	if res.Why != nil {
		ev.Why = res.Why.Error()
	}
	if solved != nil {
		ev.Rounds = solved.Rounds
		ev.TheoryChecks = solved.TheoryChecks
		ev.Conflicts, ev.Decisions, ev.Propagations = solved.SATStats()
		ev.Restarts = solved.SATRestarts()
	}
	c.Trace.Emit(ev)
}

// unknownReason is the metrics label for an Inconclusive verdict's budget.
func unknownReason(why *limits.Exhausted) string {
	if why == nil {
		return "undecidable"
	}
	return why.Reason.String()
}

// FieldFlow describes one dataflow edge discovered in an AddField
// initialiser: data from Src flows into the new field Dst.
type FieldFlow struct {
	SrcModel, SrcField string
	DstModel, DstField string
}

func (f FieldFlow) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", f.SrcModel, f.SrcField, f.DstModel, f.DstField)
}

// LeakResult reports a data leak found during AddField verification.
type LeakResult struct {
	Flow   FieldFlow
	Result *Result
}

// CheckAddFieldLeaks verifies the dataflow safety of an AddField command
// (paper §4, "Detecting Data Leaks"): for every field f that flows into the
// new field, the new field's read policy must be at least as strict as f's.
func (c *Checker) CheckAddFieldLeaks(model string, field *schema.Field, init *ast.FuncLit, flows []FieldFlow) (*LeakResult, error) {
	for _, flow := range flows {
		srcModel := c.Schema.Model(flow.SrcModel)
		if srcModel == nil {
			return nil, fmt.Errorf("dataflow source model %s not found", flow.SrcModel)
		}
		src := srcModel.Field(flow.SrcField)
		if src == nil {
			// The id field is public by construction; no check needed.
			continue
		}
		// The destination's readers must be a subset of the source's
		// readers. For same-model flows (the common case) both policies
		// see the same instance; cross-model flows (through ById or Find)
		// are checked conservatively with independent instances.
		res, err := c.checkFlowStrictness(model, field.Read, flow.SrcModel, src.Read)
		if err != nil {
			return nil, err
		}
		if res.Verdict != Safe {
			return &LeakResult{Flow: flow, Result: res}, nil
		}
	}
	return nil, nil
}
