package migrate

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"scooter/internal/obs"
	"scooter/internal/parser"
	"scooter/internal/smt/limits"
)

// limitsSchema carries the query shapes the resource-limit tests need: an
// easy strictness proof (anything -> none) and a hard one (the adminLevel
// subsumption needs several theory-refinement rounds).
const limitsSchema = `
@principal
User {
  create: public,
  delete: none,
  email: String { read: public, write: none },
  isAdmin: Bool { read: public, write: none },
  adminLevel: I64 { read: public, write: none },
  followers: Set(Id(User)) { read: public, write: none },
  pronouns: String {
    read: u -> User::Find({adminLevel >= 1}) + u.followers,
    write: none }}
`

// limitsScript: the first two commands carry trivial proofs, the last needs
// several refinement rounds. The tightening of pronouns is genuinely safe
// (adminLevel >= 2 && isAdmin implies adminLevel >= 1), so with a full
// budget the whole script verifies.
const limitsScript = `
User::UpdateFieldReadPolicy(email, none);
User::UpdateFieldWritePolicy(email, none);
User::UpdateFieldReadPolicy(pronouns,
  u -> User::Find({adminLevel >= 2, isAdmin: true}));
`

// TestRoundCapExhaustsOneProofNotSiblings: under a 1-round budget the hard
// proof comes back Inconclusive with a round-cap reason while its sibling
// proofs succeed — the error blames exactly the hard command, and a
// full-budget run of the same script verifies end to end.
func TestRoundCapExhaustsOneProofNotSiblings(t *testing.T) {
	s := loadSchema(t, limitsSchema)
	script, err := parser.ParseMigration(limitsScript)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.SolverRounds = 1
	_, err = Verify(s, script, opts)
	if err == nil {
		t.Skip("query solved within one round on this schema")
	}
	ue, ok := err.(*UnsafeError)
	if !ok {
		t.Fatalf("want *UnsafeError, got %T: %v", err, err)
	}
	if ue.Index != 2 {
		t.Fatalf("the hard proof is command 3; error blames command %d: %v", ue.Index+1, err)
	}
	if !strings.Contains(err.Error(), "inconclusive") {
		t.Fatalf("an exhausted proof must read as inconclusive, not as a violation: %v", err)
	}
	if ue.Result == nil || ue.Result.Why == nil || ue.Result.Why.Reason != limits.RoundCap {
		t.Fatalf("want round-cap exhaustion in the result, got %+v", ue.Result)
	}
	if ue.Result.Counterexample != nil {
		t.Fatal("an inconclusive proof must not fabricate a counterexample")
	}

	if _, err := Verify(s, script, DefaultOptions()); err != nil {
		t.Fatalf("full budget: %v", err)
	}
}

// TestCanceledContextYieldsInconclusive: with an already-canceled context
// every deferred proof reports Inconclusive; verification completes (no
// hang, no panic) and deterministically blames the earliest command.
func TestCanceledContextYieldsInconclusive(t *testing.T) {
	s := loadSchema(t, limitsSchema)
	script, err := parser.ParseMigration(limitsScript)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// A traced run proves in command order; an untraced one concurrently.
	for _, traced := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Context = ctx
		if traced {
			opts.Trace = obs.NewTracer(io.Discard)
		}
		_, err = Verify(s, script, opts)
		ue, ok := err.(*UnsafeError)
		if !ok {
			t.Fatalf("traced=%v: want *UnsafeError, got %T: %v", traced, err, err)
		}
		if ue.Index != 0 {
			t.Fatalf("traced=%v: earliest command must be blamed, got command %d", traced, ue.Index+1)
		}
		if ue.Result == nil || ue.Result.Why == nil || ue.Result.Why.Reason != limits.Canceled {
			t.Fatalf("traced=%v: want cancellation in the result, got %+v", traced, ue.Result)
		}
	}
}

// TestProofTimeoutYieldsInconclusive: a sub-nanosecond per-proof deadline
// expires before solving starts; the run completes with an inconclusive
// deadline report instead of hanging or panicking.
func TestProofTimeoutYieldsInconclusive(t *testing.T) {
	s := loadSchema(t, limitsSchema)
	script, err := parser.ParseMigration(limitsScript)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ProofTimeout = time.Nanosecond
	_, err = Verify(s, script, opts)
	ue, ok := err.(*UnsafeError)
	if !ok {
		t.Fatalf("want *UnsafeError, got %T: %v", err, err)
	}
	if ue.Result == nil || ue.Result.Why == nil || ue.Result.Why.Reason != limits.Deadline {
		t.Fatalf("want deadline exhaustion in the result, got %+v", ue.Result)
	}
}

// TestPanickingProofIsContained: a panic inside one deferred proof becomes
// an error for that command instead of crashing the worker pool.
func TestPanickingProofIsContained(t *testing.T) {
	err := runCheck(func(*limits.Checker) error { panic("boom") }, Options{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want contained panic, got %v", err)
	}
}

// TestConflictBudgetOption: Options.SolverConflicts reaches the SAT core.
// A zero/negative budget is ignored; the plumbing is exercised end to end
// by verifying the easy script under a generous conflict cap.
func TestConflictBudgetOption(t *testing.T) {
	s := loadSchema(t, limitsSchema)
	script, err := parser.ParseMigration(limitsScript)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SolverConflicts = 1 << 20
	if _, err := Verify(s, script, opts); err != nil {
		t.Fatalf("generous conflict budget must not change verdicts: %v", err)
	}
}
