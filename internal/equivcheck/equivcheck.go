// Package equivcheck proves two migrations over the same source schema
// observationally equivalent up to a configurable bound — the Mediator /
// VeriEQL line of work applied to Scooter migrations, extending Sidecar
// from strictness-only proofs to bounded equivalence proofs (ROADMAP item
// 4). A check has two phases:
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
//     over the source schema, both sides execute against identically
//     seeded stores, and the resulting stores are compared canonically
//     (collections and fields sorted, sets as sorted multisets). The first
//     diverging collection/field, together with the seeded universe that
//     witnesses it, becomes a concrete counterexample.
//
// Enumeration stays tractable through relevance reductions (documented in
// DESIGN.md): models neither mutated by a side nor read by an initialiser
// are seeded empty, only fields an initialiser reads get varied value
// domains, universes are enumerated up to document renaming, and the total
// is capped — exceeding the cap yields Inconclusive, never a silent skip.
//
// Verdicts flow through the same verdict store as strictness proofs (the
// persistent verify.VerdictDB when one is attached, else the fingerprint
// LRU verify.Cache), keyed by a
// canonical fingerprint of the source spec, both sides, and the bounds, so
// a warm replay reproduces cold output byte for byte.
package equivcheck

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"scooter/internal/ast"
	"scooter/internal/schema"
	"scooter/internal/smt/term"
	"scooter/internal/specfmt"
	"scooter/internal/store"
	"scooter/internal/verify"
)

// Defaults for Options.
const (
	DefaultBound        = 2
	DefaultMaxUniverses = 20000
)

// InitRef is one AddField initialiser of a side, used by the relevance
// analysis to decide which models and fields the data phase must vary.
// The initialiser must be type-checked (migrate.Verify does this) so field
// references resolve.
type InitRef struct {
	Model string
	Init  *ast.FuncLit
}

// Side is one of the two migrations under comparison: a script, or an
// internally derived execution plan (e.g. the online backfill plan). The
// engine never parses or verifies a side itself — the caller supplies the
// final schema, the initialisers, the mutated model set, and an executor.
type Side struct {
	// Name labels the side in counterexamples (e.g. the script filename).
	Name string
	// ID is the side's canonical identity for fingerprinting: two sides
	// with equal IDs are assumed to be the same migration. The migrate
	// entry points use the canonical command rendering (plus a plan tag).
	ID string
	// After is the side's post-migration schema.
	After *schema.Schema
	// Inits lists the side's AddField initialisers for relevance analysis.
	Inits []InitRef
	// Mutated names the models whose collections the side's execution can
	// mutate (AddField, RemoveField, and DeleteModel targets).
	Mutated []string
	// Exec runs the side's migration against a seeded store.
	Exec func(db *store.DB) error
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
	// (verify.DefaultSolverRounds when <= 0).
	SolverRounds int
	// Kind tags the verdict's cache key ("equiv" when empty; the online
	// plan self-check uses "equiv-online") so differently derived checks
	// never share an entry.
	Kind string
	// Cache, when set, memoizes equivalence verdicts alongside strictness
	// verdicts; VerdictDB, when set, persists them instead. The inner
	// policy proofs use the same store under their own strictness keys.
	Cache     *verify.Cache
	VerdictDB *verify.VerdictDB
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
	// CacheHit reports that the verdict was answered from the fingerprint
	// cache or the verdict store without re-checking.
	CacheHit bool
	// Incomplete notes that a policy proof used bounded instantiation.
	Incomplete bool
	// Counterexample is set on NotEquivalent: the diverging location and
	// the seeded universe (or policy witness database) exhibiting it.
	Counterexample *verify.Counterexample
	// Why explains an Inconclusive verdict.
	Why string
}

// Format renders the report deterministically. Cache status is deliberately
// excluded: a warm replay must reproduce the cold rendering byte for byte.
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

// Check proves sides a and b equivalent over the source schema before, up
// to the configured bound. It returns an error only on internal failures
// (e.g. a side's executor failing for reasons other than rejecting a
// universe); verdicts, counterexamples, and budget exhaustion are reported
// in the Report.
func Check(before *schema.Schema, a, b Side, opts Options) (*Report, error) {
	bound := opts.Bound
	if bound <= 0 {
		bound = DefaultBound
	}
	maxU := opts.MaxUniverses
	if maxU <= 0 {
		maxU = DefaultMaxUniverses
	}
	rounds := opts.SolverRounds
	if rounds <= 0 {
		rounds = verify.DefaultSolverRounds
	}
	kind := opts.Kind
	if kind == "" {
		kind = "equiv"
	}

	key := cacheKey(before, a, b, bound, maxU, rounds, kind)
	if res, ok := verify.LookupVerdict(opts.Cache, opts.VerdictDB, nil, key); ok {
		return reportFromResult(&res, bound), nil
	}

	rep, err := check(before, a, b, bound, maxU, rounds, opts)
	if err != nil {
		return nil, err
	}
	rep.Bound = bound
	if rep.Verdict != Inconclusive {
		// Inconclusive is never cached — which budget ran out depends on
		// the run, matching the strictness-verdict cache rule.
		verify.StoreVerdict(opts.Cache, opts.VerdictDB, key, resultFromReport(rep))
	}
	return rep, nil
}

// check runs both phases cold (no verdict-cache consultation for the
// overall answer; the inner policy proofs still use the caches).
func check(before *schema.Schema, a, b Side, bound, maxU, rounds int, opts Options) (*Report, error) {
	rep := &Report{Verdict: Equivalent}

	// Phase 1: structural schema equality, then policy equivalence.
	if ce := diffShapes(a, b); ce != nil {
		rep.Verdict = NotEquivalent
		rep.Counterexample = ce
		return rep, nil
	}
	done, err := checkPolicies(a, b, rounds, opts, rep)
	if err != nil || done {
		return rep, err
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
		errA, errB := a.Exec(dba), b.Exec(dbb)
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
func checkPolicies(a, b Side, rounds int, opts Options, rep *Report) (bool, error) {
	// Both schemas are structurally equal at this point; a's supplies the
	// model/principal context for lowering (policies are compared
	// explicitly, so b's policy text never needs to live in the schema).
	checker := verify.New(a.After, nil)
	checker.SolverRounds = rounds
	checker.Cache = opts.Cache
	checker.Persist = opts.VerdictDB

	type slot struct {
		model, loc string
		pa, pb     ast.Policy
	}
	var slots []slot
	for _, name := range a.After.SortedModelNames() {
		ma, mb := a.After.Model(name), b.After.Model(name)
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
		}{{s.pa, s.pb, b.Name}, {s.pb, s.pa, a.Name}} {
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
func diffShapes(a, b Side) *verify.Counterexample {
	mismatch := func(where, va, vb string) *verify.Counterexample {
		return &verify.Counterexample{
			Principal: "final schemas differ at " + where,
			Target: verify.Record{
				Model: "$schema",
				ID:    where,
				Fields: []verify.FieldValue{
					{Name: a.Name, Value: va},
					{Name: b.Name, Value: vb},
				},
			},
		}
	}
	sa, sb := append([]string(nil), a.After.Statics...), append([]string(nil), b.After.Statics...)
	sort.Strings(sa)
	sort.Strings(sb)
	if strings.Join(sa, ",") != strings.Join(sb, ",") {
		return mismatch("static principals", strings.Join(sa, ", "), strings.Join(sb, ", "))
	}
	na, nb := a.After.SortedModelNames(), b.After.SortedModelNames()
	if strings.Join(na, ",") != strings.Join(nb, ",") {
		return mismatch("models", strings.Join(na, ", "), strings.Join(nb, ", "))
	}
	for _, name := range na {
		ma, mb := a.After.Model(name), b.After.Model(name)
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

// cacheKey fingerprints a check: the canonical source spec, both sides'
// identities, and every parameter a verdict depends on. The key shares
// verify.CacheKey so equivalence verdicts live in the same store as
// strictness verdicts, distinguished by Kind.
func cacheKey(before *schema.Schema, a, b Side, bound, maxU, rounds int, kind string) verify.CacheKey {
	payload := strings.Join([]string{
		"equivcheck-v1",
		canonicalSpec(before),
		a.ID,
		b.ID,
		strconv.Itoa(bound),
		strconv.Itoa(maxU),
	}, "\x00")
	return verify.CacheKey{
		Fp:     fingerprint(payload),
		Kind:   kind,
		Rounds: rounds,
	}
}

func fingerprint(payload string) term.Fp {
	var fp term.Fp
	for i, seed := range []string{"equiv-lo\x00", "equiv-hi\x00"} {
		h := fnv.New64a()
		h.Write([]byte(seed))
		h.Write([]byte(payload))
		fp[i] = h.Sum64()
	}
	return fp
}

// canonicalSpec renders a schema with models and statics in sorted order,
// so fingerprints do not depend on declaration order.
func canonicalSpec(s *schema.Schema) string {
	c := s.Clone()
	sort.Strings(c.Statics)
	sort.Slice(c.Models, func(i, j int) bool { return c.Models[i].Name < c.Models[j].Name })
	return specfmt.Format(c)
}

// resultFromReport maps a definitive report onto verify.Result so it can
// ride the strictness caches. The replay statistics are packed into the
// (otherwise unused) principal-kind strings — both persist through
// VerdictDB, so a warm replay reproduces cold output byte for byte.
func resultFromReport(rep *Report) verify.Result {
	res := verify.Result{Incomplete: rep.Incomplete, Counterexample: rep.Counterexample}
	if rep.Verdict == NotEquivalent {
		res.Verdict = verify.Violation
	}
	res.Kind.Model = "u" + strconv.Itoa(rep.Universes)
	res.Kind.Static = "p" + strconv.Itoa(rep.PolicyProofs)
	return res
}

func reportFromResult(res *verify.Result, bound int) *Report {
	rep := &Report{
		Verdict:        Equivalent,
		Bound:          bound,
		CacheHit:       true,
		Incomplete:     res.Incomplete,
		Counterexample: res.Counterexample,
	}
	if res.Verdict == verify.Violation {
		rep.Verdict = NotEquivalent
	}
	rep.Universes = unpackStat(res.Kind.Model, "u")
	rep.PolicyProofs = unpackStat(res.Kind.Static, "p")
	return rep
}

func unpackStat(s, prefix string) int {
	if !strings.HasPrefix(s, prefix) {
		return 0
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil {
		return 0
	}
	return n
}
