// Package equivcheck proves two migrations over the same source schema
// observationally equivalent up to a configurable bound — the Mediator /
// VeriEQL line of work applied to Scooter migrations, extending Sidecar
// from strictness-only proofs to bounded equivalence proofs (ROADMAP item
// 4). Check takes the two scripts, plans each with migrate.Structural and
// runs each stop-the-world with migrate.ExecuteFromAt under one fixed
// clock. A check has two phases:
//
//  1. Schema/policy phase. The final schemas must be structurally equal
//     (statics, models, fields, types, principal flags), and every pair of
//     corresponding policies must be extensionally equal — proved by the
//     SMT-backed strictness checker in both directions. Extensional policy
//     equality over unconstrained stores is the right notion here: the
//     post-migration spec also governs documents written after the
//     migration, whose field values are not determined by any initialiser.
//
//  2. Data phase. Every document universe up to the bound is enumerated
//     over the source schema, both scripts execute against identically
//     seeded stores, and the resulting stores are compared canonically
//     (collections and fields sorted, sets as sorted multisets). The first
//     diverging collection/field, together with the seeded universe that
//     witnesses it, becomes a concrete counterexample.
//
// Enumeration stays tractable through relevance reductions (documented in
// DESIGN.md): models neither mutated by a script nor read by an initialiser
// are seeded empty, only fields an initialiser reads get varied value
// domains, universes are enumerated up to document renaming, and the total
// is capped — exceeding the cap yields Inconclusive, never a silent skip.
//
// A check's report is not stored: a bounded replay of a corpus pair costs
// about a millisecond, and every check runs both phases. Only the inner
// policy proofs go through the verdict store (Options.Cache, in memory or
// file-backed), under their own strictness keys.
package equivcheck

import (
	"fmt"
	"sort"
	"strings"

	"scooter/internal/ast"
	"scooter/internal/migrate"
	"scooter/internal/schema"
	"scooter/internal/store"
	"scooter/internal/verify"
)

// Defaults for Options.
const (
	DefaultBound        = 2
	DefaultMaxUniverses = 20000
)

// nowUnix is the fixed clock both scripts execute under. `now` is an
// input of the migration, not something either script computes, so
// equivalence is judged at a common instant.
const nowUnix int64 = 1_000_000_000

// side is one of the two scripts under comparison.
type side struct {
	// name labels the side in counterexamples (e.g. the script filename).
	name string
	// plan holds the script and its post-migration schema.
	plan *migrate.Plan
	// inits lists the script's AddField commands, whose initialisers the
	// relevance analysis reads. Planning type-checked them, so field
	// references resolve.
	inits []*ast.AddField
	// mutated names the models whose collections the script can change
	// (a model may repeat). DeleteModel counts even when a later
	// CreateModel restores the same shape: delete-then-recreate empties
	// the collection, which is observable against a script that leaves it
	// alone.
	mutated []string
}

// newSide type-checks and plans a script. Strictness verification is
// skipped: equivalence is a property between the scripts, independent of
// whether either passes Sidecar.
func newSide(before *schema.Schema, name string, script *ast.MigrationScript) (side, error) {
	plan, err := migrate.Structural(before, script)
	if err != nil {
		return side{}, fmt.Errorf("%s: %w", name, err)
	}
	sd := side{name: name, plan: plan}
	for _, cmd := range script.Commands {
		switch c := cmd.(type) {
		case *ast.AddField:
			sd.inits = append(sd.inits, c)
			sd.mutated = append(sd.mutated, c.ModelName)
		case *ast.RemoveField:
			sd.mutated = append(sd.mutated, c.ModelName)
		case *ast.DeleteModel:
			sd.mutated = append(sd.mutated, c.ModelName)
		}
	}
	return sd, nil
}

// exec runs the script stop-the-world against a seeded store.
func (s side) exec(db *store.DB) error {
	return migrate.ExecuteFromAt(s.plan, db, nil, migrate.JournalEntry{AppliedAt: nowUnix}, migrate.Options{}, nil, nil)
}

// Options configures a check.
type Options struct {
	// Bound caps documents per relevant model (DefaultBound when <= 0). An
	// Equivalent verdict holds for every universe up to this bound.
	Bound int
	// MaxUniverses caps the number of universes the data phase replays
	// (DefaultMaxUniverses when <= 0). A universe space larger than the cap
	// yields Inconclusive.
	MaxUniverses int
	// SolverRounds is the per-policy-proof SMT budget
	// (solver.DefaultMaxRounds when <= 0).
	SolverRounds int
	// Cache, when set, is the verdict store of the inner policy proofs
	// (persisting them when it is file-backed).
	Cache *verify.Cache
}

// Verdict classifies an equivalence check.
type Verdict int

// Verdicts. Inconclusive arises when a policy proof exhausts its solver
// budget or the universe space exceeds MaxUniverses.
const (
	Equivalent Verdict = iota
	NotEquivalent
	Inconclusive
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case NotEquivalent:
		return "not-equivalent"
	default:
		return "inconclusive"
	}
}

// Report is the outcome of a check.
type Report struct {
	Verdict Verdict
	// Bound is the per-model document bound the verdict holds up to.
	Bound int
	// Universes counts document universes the data phase replayed.
	Universes int
	// PolicyProofs counts SMT strictness proofs discharged in phase 1.
	PolicyProofs int
	// Incomplete notes that a policy proof used bounded instantiation.
	Incomplete bool
	// Counterexample is set on NotEquivalent: the diverging location and
	// the seeded universe (or policy witness database) exhibiting it.
	Counterexample *verify.Counterexample
	// Why explains an Inconclusive verdict.
	Why string
}

// Format renders the report deterministically: a re-run, warm verdict
// store or not, reproduces it byte for byte.
func (r *Report) Format() string {
	var sb strings.Builder
	switch r.Verdict {
	case Equivalent:
		fmt.Fprintf(&sb, "EQUIVALENT up to bound %d (%d universes replayed, %d policy proofs)\n",
			r.Bound, r.Universes, r.PolicyProofs)
		if r.Incomplete {
			sb.WriteString("note: a policy proof used bounded instantiation; equality holds up to the instantiation bound\n")
		}
	case NotEquivalent:
		fmt.Fprintf(&sb, "NOT EQUIVALENT (bound %d)\n", r.Bound)
		if r.Counterexample != nil {
			sb.WriteString(r.Counterexample.String())
		}
	default:
		fmt.Fprintf(&sb, "INCONCLUSIVE (bound %d): %s\n", r.Bound, r.Why)
	}
	return sb.String()
}

// Check proves scripts a and b (labelled aName and bName in
// counterexamples) equivalent over the source schema before, up to the
// configured bound. It returns an error only when a script fails to plan
// or on internal failures; verdicts, counterexamples, and budget
// exhaustion are reported in the Report.
func Check(before *schema.Schema, aName string, aScript *ast.MigrationScript, bName string, bScript *ast.MigrationScript, opts Options) (*Report, error) {
	a, err := newSide(before, aName, aScript)
	if err != nil {
		return nil, err
	}
	b, err := newSide(before, bName, bScript)
	if err != nil {
		return nil, err
	}
	bound := opts.Bound
	if bound <= 0 {
		bound = DefaultBound
	}
	maxU := opts.MaxUniverses
	if maxU <= 0 {
		maxU = DefaultMaxUniverses
	}
	rep := &Report{Verdict: Equivalent, Bound: bound}

	// Phase 1: structural schema equality, then policy equivalence.
	if ce := diffShapes(a, b); ce != nil {
		rep.Verdict = NotEquivalent
		rep.Counterexample = ce
		return rep, nil
	}
	done, err := checkPolicies(a, b, opts, rep)
	if err != nil {
		return nil, err
	}
	if done {
		return rep, nil
	}

	// Phase 2: bounded differential replay.
	uset, err := buildUniverses(before, a, b, bound)
	if err != nil {
		return nil, err
	}
	if uset.total > int64(maxU) {
		rep.Verdict = Inconclusive
		rep.Why = fmt.Sprintf("universe space (%d) exceeds max-universes (%d); raise -max-universes or lower -bound", uset.total, maxU)
		return rep, nil
	}
	idx := 0
	_, err = uset.each(func(u seededUniverse) (bool, error) {
		rep.Universes++
		dba, dbb := u.seed(), u.seed()
		errA, errB := a.exec(dba), b.exec(dbb)
		if errA != nil && errB != nil {
			// Both sides reject this universe: vacuously equal outcomes.
			idx++
			return false, nil
		}
		if (errA != nil) != (errB != nil) {
			rep.Verdict = NotEquivalent
			rep.Counterexample = execCounterexample(a, b, u, errA, errB, bound, idx)
			return true, nil
		}
		if div := diffStores(dba, dbb); div != nil {
			rep.Verdict = NotEquivalent
			rep.Counterexample = dataCounterexample(a, b, u, div, bound, idx)
			return true, nil
		}
		idx++
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPolicies proves every corresponding policy pair extensionally equal
// via the strictness checker in both directions. Returns done=true when the
// verdict is decided (NotEquivalent or Inconclusive).
func checkPolicies(a, b side, opts Options, rep *Report) (bool, error) {
	// Both schemas are structurally equal at this point; a's supplies the
	// model/principal context for lowering (policies are compared
	// explicitly, so b's policy text never needs to live in the schema).
	checker := verify.New(a.plan.After, nil)
	checker.SolverRounds = opts.SolverRounds
	checker.Cache = opts.Cache

	type slot struct {
		model, loc string
		pa, pb     ast.Policy
	}
	var slots []slot
	for _, name := range a.plan.After.SortedModelNames() {
		ma, mb := a.plan.After.Model(name), b.plan.After.Model(name)
		slots = append(slots,
			slot{name, name + " (create)", ma.Create, mb.Create},
			slot{name, name + " (delete)", ma.Delete, mb.Delete})
		for _, fa := range ma.Fields {
			fb := mb.Field(fa.Name)
			slots = append(slots,
				slot{name, fmt.Sprintf("%s.%s (read)", name, fa.Name), fa.Read, fb.Read},
				slot{name, fmt.Sprintf("%s.%s (write)", name, fa.Name), fa.Write, fb.Write})
		}
	}
	for _, s := range slots {
		if s.pa.String() == s.pb.String() {
			continue
		}
		for _, dir := range []struct {
			old, new ast.Policy
			admitted string // side whose policy admits the witness principal
		}{{s.pa, s.pb, b.name}, {s.pb, s.pa, a.name}} {
			res, err := checker.CheckStrictness(s.model, dir.old, dir.new)
			if err != nil {
				return false, fmt.Errorf("policy proof for %s: %w", s.loc, err)
			}
			rep.PolicyProofs++
			rep.Incomplete = rep.Incomplete || res.Incomplete
			switch res.Verdict {
			case verify.Violation:
				rep.Verdict = NotEquivalent
				rep.Counterexample = policyCounterexample(s.loc, dir.admitted, res.Counterexample)
				return true, nil
			case verify.Inconclusive:
				rep.Verdict = Inconclusive
				rep.Why = fmt.Sprintf("policy proof for %s is inconclusive", s.loc)
				if res.Why != nil {
					rep.Why += ": " + res.Why.Error()
				}
				return true, nil
			}
		}
	}
	return false, nil
}

// diffShapes compares the two final schemas structurally (everything but
// policy bodies). A mismatch is a definitive inequivalence: the migrations
// do not even agree on the resulting specification's shape.
func diffShapes(a, b side) *verify.Counterexample {
	mismatch := func(where, va, vb string) *verify.Counterexample {
		return &verify.Counterexample{
			Principal: "final schemas differ at " + where,
			Target: verify.Record{
				Model: "$schema",
				ID:    where,
				Fields: []verify.FieldValue{
					{Name: a.name, Value: va},
					{Name: b.name, Value: vb},
				},
			},
		}
	}
	sa, sb := append([]string(nil), a.plan.After.Statics...), append([]string(nil), b.plan.After.Statics...)
	sort.Strings(sa)
	sort.Strings(sb)
	if strings.Join(sa, ",") != strings.Join(sb, ",") {
		return mismatch("static principals", strings.Join(sa, ", "), strings.Join(sb, ", "))
	}
	na, nb := a.plan.After.SortedModelNames(), b.plan.After.SortedModelNames()
	if strings.Join(na, ",") != strings.Join(nb, ",") {
		return mismatch("models", strings.Join(na, ", "), strings.Join(nb, ", "))
	}
	for _, name := range na {
		ma, mb := a.plan.After.Model(name), b.plan.After.Model(name)
		if ma.Principal != mb.Principal {
			return mismatch(name+" @principal", fmt.Sprintf("%t", ma.Principal), fmt.Sprintf("%t", mb.Principal))
		}
		fa, fb := append([]string(nil), ma.FieldNames()...), append([]string(nil), mb.FieldNames()...)
		sort.Strings(fa)
		sort.Strings(fb)
		if strings.Join(fa, ",") != strings.Join(fb, ",") {
			return mismatch(name+" fields", strings.Join(fa, ", "), strings.Join(fb, ", "))
		}
		for _, fn := range fa {
			ta, tb := ma.Field(fn).Type, mb.Field(fn).Type
			if !ta.Equal(tb) {
				return mismatch(name+"."+fn+" type", ta.String(), tb.String())
			}
		}
	}
	return nil
}

// policyCounterexample wraps an SMT strictness witness with its location:
// the witness principal can read the target under one side's policy but
// not the other's.
func policyCounterexample(loc, admittedBy string, inner *verify.Counterexample) *verify.Counterexample {
	ce := &verify.Counterexample{
		Principal: fmt.Sprintf("policies disagree at %s: principal admitted only by %s", loc, admittedBy),
	}
	if inner != nil {
		ce.Principal = fmt.Sprintf("policies disagree at %s: %s admitted only by %s", loc, inner.Principal, admittedBy)
		ce.PrincipalRef = inner.PrincipalRef
		ce.StaticPrincipal = inner.StaticPrincipal
		ce.Target = inner.Target
		ce.Others = inner.Others
	}
	return ce
}
