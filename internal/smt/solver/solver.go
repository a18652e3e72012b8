// Package solver combines the SAT core with the EUF and linear-arithmetic
// theory engines into a lazy CDCL(T) SMT solver, and constructs models for
// satisfiable queries. It fills the role Z3 plays in the paper: Sidecar
// lowers policy-strictness queries to this solver and renders its models as
// counterexample databases.
//
// Theory combination is equality-sharing in one direction (EUF-implied
// equalities between arithmetic terms feed the simplex) plus a final
// model-validation step that blocks assignments the theories individually
// accept but no combined model satisfies. The final check makes Sat answers
// sound: a reported model always evaluates the original formula to true.
package solver

import (
	"math/big"

	"scooter/internal/smt/cnf"
	"scooter/internal/smt/euf"
	"scooter/internal/smt/limits"
	"scooter/internal/smt/sat"
	"scooter/internal/smt/simplex"
	"scooter/internal/smt/term"
)

// Status is a solver verdict.
type Status int

// Verdicts. Unknown arises from resource exhaustion — the refinement round
// cap, the SAT conflict budget, the simplex pivot/branch budgets, a
// wall-clock deadline, or cancellation; Exhaustion() reports which.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// boolTrueSortName is the internal sort used to reflect boolean-sorted
// uninterpreted applications into EUF.
const boolTrueSortName = "$Bool"

// Solver is a one-shot SMT solver: assert formulas, then Check.
type Solver struct {
	B *term.Builder

	asserted []term.T

	// MaxRounds caps the lazy refinement loop (DefaultMaxRounds from New).
	MaxRounds int

	// MaxConflicts, when positive, caps the SAT core's total conflicts per
	// Check (across refinement rounds), bounding work deterministically.
	MaxConflicts int64

	// Limits, when set, carries the wall-clock deadline / cancellation
	// checker into every engine: the refinement loop polls it each round,
	// the SAT core each conflict, and the simplex each pivot stride.
	Limits *limits.Checker

	sat  *sat.Solver
	conv *cnf.Converter

	trueConst term.T // $true constant for boolean apps in EUF

	model *Model
	why   *limits.Exhausted

	// Stats of the last Check.
	Rounds       int
	TheoryChecks int
}

// DefaultMaxRounds is the refinement-round cap New sets: the per-query
// budget of every proof whose caller does not choose one (no
// migrate.Options.SolverRounds, no sidecar -solver-rounds flag).
const DefaultMaxRounds = 20000

// New returns a solver over the builder's terms.
func New(b *term.Builder) *Solver {
	return &Solver{B: b, MaxRounds: DefaultMaxRounds}
}

// Assert conjoins t to the formula to be checked.
func (s *Solver) Assert(t term.T) {
	s.asserted = append(s.asserted, t)
}

// tlit is a theory atom with its truth assignment.
type tlit struct {
	atom term.T
	val  bool
}

// Check decides satisfiability of the asserted formulas. A non-nil error
// is a diagnostic for malformed input (e.g. a non-linear multiplication
// outside the solver's fragment); resource exhaustion is not an error but
// an Unknown verdict whose reason Exhaustion() reports.
func (s *Solver) Check() (Status, error) {
	s.why = nil
	s.model = nil
	s.TheoryChecks = 0
	s.sat = sat.New()
	s.sat.Limits = s.Limits
	s.sat.MaxConflicts = s.MaxConflicts
	s.conv = cnf.New(s.B, s.sat)
	s.trueConst = s.B.Const("$true", term.Uninterp(boolTrueSortName))

	pre := newPreprocessor(s.B)
	for _, t := range s.asserted {
		rt := pre.rewrite(t)
		if pre.err != nil {
			return Unknown, pre.err
		}
		s.conv.Assert(rt)
	}
	for _, side := range pre.sideConditions {
		s.conv.Assert(side)
	}
	s.addArithEqualitySplits()

	for s.Rounds = 0; s.Rounds < s.MaxRounds; s.Rounds++ {
		if ex := s.Limits.Expired(); ex != nil {
			s.why = ex
			return Unknown, nil
		}
		switch s.sat.Solve() {
		case sat.Unsat:
			return Unsat, nil
		case sat.Unknown:
			s.why = s.sat.Exhaustion()
			return Unknown, nil
		}
		lits := s.assignment()
		tc, err := s.runTheories(lits)
		if err != nil {
			return s.giveUp(err)
		}
		if !tc.ok {
			// A minimal core is a far stronger lemma than blocking the
			// whole assignment.
			core, err := s.minimizeCore(lits)
			if err != nil {
				return s.giveUp(err)
			}
			s.blockLits(core)
			continue
		}
		m := s.buildModel(lits, tc)
		if bad := s.invalidAtom(lits, m); bad >= 0 {
			// The individual theories accept the assignment but no joint
			// model exists; block this exact theory assignment.
			s.blockLits(lits)
			continue
		}
		s.model = m
		return Sat, nil
	}
	s.why = limits.Budget(limits.RoundCap, "after %d refinement rounds", s.MaxRounds)
	return Unknown, nil
}

// giveUp folds an engine error into the verdict: exhaustion becomes a
// graceful Unknown with the reason recorded, anything else surfaces as a
// diagnostic.
func (s *Solver) giveUp(err error) (Status, error) {
	if ex := limits.AsExhausted(err); ex != nil {
		s.why = ex
		return Unknown, nil
	}
	return Unknown, err
}

// Exhaustion reports why the last Check returned Unknown (round cap,
// conflict budget, pivot/branch budget, deadline, or cancellation); nil
// after Sat or Unsat.
func (s *Solver) Exhaustion() *limits.Exhausted { return s.why }

// Model returns the model found by the last successful Check.
func (s *Solver) Model() *Model { return s.model }

// SATStats reports the SAT core's search statistics for the last Check;
// zeros before the first Check.
func (s *Solver) SATStats() (conflicts, decisions, propagations int64) {
	if s.sat == nil {
		return 0, 0, 0
	}
	return s.sat.Stats()
}

// SATRestarts reports the SAT core's restart count for the last Check;
// zero before the first Check.
func (s *Solver) SATRestarts() int64 {
	if s.sat == nil {
		return 0
	}
	return s.sat.Restarts()
}

// assignment extracts the current truth values of all theory atoms.
func (s *Solver) assignment() []tlit {
	atoms := s.conv.Atoms()
	lits := make([]tlit, 0, len(atoms))
	for _, at := range atoms {
		if s.isTheoryAtom(at.T) {
			lits = append(lits, tlit{atom: at.T, val: s.sat.Value(at.V)})
		}
	}
	return lits
}

// isTheoryAtom reports whether the atom involves a theory (vs a free
// boolean variable, which SAT alone decides).
func (s *Solver) isTheoryAtom(t term.T) bool {
	switch s.B.Op(t) {
	case term.OpEq, term.OpLe, term.OpLt:
		return true
	case term.OpApp:
		return true // boolean-sorted application
	}
	return false
}

// blockLits adds a clause forbidding the given partial assignment: the
// blocked assignment is theory-infeasible (or admits no joint model).
func (s *Solver) blockLits(lits []tlit) {
	clause := make([]sat.Lit, len(lits))
	for i, l := range lits {
		clause[i] = sat.MkLit(s.conv.Lit(l.atom).Var(), l.val) // negated literal
	}
	s.sat.AddClause(clause...)
}

// addArithEqualitySplits adds, for every arithmetic equality atom a=b, the
// theory-valid clauses (a=b) or (a<b) or (b<a), (a=b) -> not(a<b), and
// (a=b) -> not(b<a). This lets the simplex engine see a strict inequality
// whenever an equality is assigned false, avoiding disequality handling.
func (s *Solver) addArithEqualitySplits() {
	// Collect the equalities first: creating Lt atoms extends the atoms.
	var eqs []term.T
	for _, at := range s.conv.Atoms() {
		if s.B.Op(at.T) == term.OpEq && s.isArithSort(s.B.SortOf(s.B.Args(at.T)[0])) {
			eqs = append(eqs, at.T)
		}
	}
	for _, eq := range eqs {
		args := s.B.Args(eq)
		lt1 := s.B.Lt(args[0], args[1])
		lt2 := s.B.Lt(args[1], args[0])
		s.conv.AddClauseTerms(eq, lt1, lt2)
		s.conv.AddClauseTerms(s.B.Not(eq), s.B.Not(lt1))
		s.conv.AddClauseTerms(s.B.Not(eq), s.B.Not(lt2))
	}
}

func (s *Solver) isArithSort(sort term.Sort) bool {
	return sort.Kind == term.SortInt || sort.Kind == term.SortReal
}

// theoryResult carries the artifacts of a successful combined theory check.
type theoryResult struct {
	ok      bool
	euf     euf.Result
	lia     *simplex.Solver
	liaVars map[term.T]simplex.VarID
}

// runTheories checks the assignment against EUF and linear arithmetic. A
// non-nil error is a *limits.Exhausted status from the simplex (pivot or
// branch budget, deadline): the assignment was neither accepted nor
// refuted.
func (s *Solver) runTheories(lits []tlit) (theoryResult, error) {
	s.TheoryChecks++
	// --- EUF ---
	var assertions []euf.Assertion
	extra := map[term.T]bool{}
	for _, l := range lits {
		at := l.atom
		switch s.B.Op(at) {
		case term.OpEq:
			args := s.B.Args(at)
			assertions = append(assertions, euf.Assertion{A: args[0], B: args[1], Equal: l.val})
		case term.OpApp:
			assertions = append(assertions, euf.Assertion{A: at, B: s.trueConst, Equal: l.val})
		case term.OpLe, term.OpLt:
			// Register app leaves so congruence sees them.
			for _, arg := range s.B.Args(at) {
				s.collectAppLeaves(arg, extra)
			}
		}
	}
	extraTerms := make([]term.T, 0, len(extra))
	for t := range extra {
		extraTerms = append(extraTerms, t)
	}
	eufRes := euf.CheckWithTerms(s.B, assertions, extraTerms)
	if !eufRes.Sat {
		return theoryResult{ok: false}, nil
	}

	// --- Linear arithmetic ---
	lia := simplex.New()
	lia.Limits = s.Limits
	liaVars := map[term.T]simplex.VarID{}
	leaf := func(t term.T) simplex.VarID {
		if v, ok := liaVars[t]; ok {
			return v
		}
		v := lia.NewVar(s.B.SortOf(t).Kind == term.SortInt)
		liaVars[t] = v
		return v
	}
	addAtom := func(a, b term.T, op simplex.Op) {
		la := linearize(s.B, a, leaf)
		lb := linearize(s.B, b, leaf)
		// a - b op 0  =>  terms(a) - terms(b) op kb - ka.
		terms := append([]simplex.Monomial{}, la.monomials...)
		for _, m := range lb.monomials {
			terms = append(terms, simplex.Monomial{Coeff: new(big.Rat).Neg(m.Coeff), Var: m.Var})
		}
		k := new(big.Rat).Sub(lb.constant, la.constant)
		lia.AddConstraint(simplex.Constraint{Terms: terms, Op: op, K: k})
	}
	for _, l := range lits {
		at := l.atom
		args := s.B.Args(at)
		switch s.B.Op(at) {
		case term.OpLe:
			if l.val {
				addAtom(args[0], args[1], simplex.Le)
			} else {
				addAtom(args[0], args[1], simplex.Gt)
			}
		case term.OpLt:
			if l.val {
				addAtom(args[0], args[1], simplex.Lt)
			} else {
				addAtom(args[0], args[1], simplex.Ge)
			}
		case term.OpEq:
			if l.val && s.isArithSort(s.B.SortOf(args[0])) {
				addAtom(args[0], args[1], simplex.EqOp)
			}
		}
	}
	// EUF-implied equalities between arithmetic terms: group the terms EUF
	// saw by representative and equate arithmetic members.
	byClass := map[term.T][]term.T{}
	for t, rep := range eufRes.Classes {
		if s.isArithSort(s.B.SortOf(t)) {
			byClass[rep] = append(byClass[rep], t)
		}
	}
	for _, members := range byClass {
		for i := 1; i < len(members); i++ {
			addAtom(members[0], members[i], simplex.EqOp)
		}
	}
	ok, err := lia.Check()
	if err != nil {
		return theoryResult{}, err
	}
	if !ok {
		return theoryResult{ok: false}, nil
	}
	return theoryResult{ok: true, euf: eufRes, lia: lia, liaVars: liaVars}, nil
}

// collectAppLeaves gathers uninterpreted application terms nested in an
// arithmetic expression.
func (s *Solver) collectAppLeaves(t term.T, out map[term.T]bool) {
	switch s.B.Op(t) {
	case term.OpAdd, term.OpSub, term.OpMul:
		for _, a := range s.B.Args(t) {
			s.collectAppLeaves(a, out)
		}
	case term.OpApp, term.OpConst:
		out[t] = true
	}
}

// minimizeCore shrinks an infeasible assignment to a minimal infeasible
// core with Junker's QuickXplain, preferring later literals. Theory
// infeasibility is monotone, so this is exactly the core a front-to-back
// deletion filter keeps (drop each literal whose removal leaves the set
// infeasible), found in O(k·log(n/k)) checks for a k-literal core instead of
// n (up to about 2n when the core is nearly the whole set; theory conflicts
// here are mostly small cores in long assignments). Every trial set is checked in assignment order, and the core is
// returned in assignment order: blockLits' clause order feeds the SAT core's
// watches. An exhaustion error from a trial check aborts minimisation — the
// deadline has passed, so the caller gives up on the whole query rather than
// block a maybe-sound core.
func (s *Solver) minimizeCore(lits []tlit) ([]tlit, error) {
	pref := make([]int, len(lits)) // literal indices, most preferred first
	for i := range pref {
		pref[i] = len(lits) - 1 - i
	}
	in := make([]bool, len(lits))
	core, err := s.quickXplain(lits, in, false, pref)
	if err != nil {
		return nil, err
	}
	for _, i := range core {
		in[i] = true
	}
	out := make([]tlit, 0, len(core))
	for i, l := range lits {
		if in[i] {
			out = append(out, l)
		}
	}
	return out, nil
}

// quickXplain returns the preferred minimal subset of cand that is
// infeasible together with the background bg (a mask over lits), given that
// bg ∪ cand is infeasible. grew reports that bg just gained literals, so bg
// alone may already be infeasible. bg is restored before returning.
func (s *Solver) quickXplain(lits []tlit, bg []bool, grew bool, cand []int) ([]int, error) {
	if grew {
		trial := make([]tlit, 0, len(lits))
		for i, l := range lits {
			if bg[i] {
				trial = append(trial, l)
			}
		}
		tc, err := s.runTheories(trial)
		if err != nil {
			return nil, err
		}
		if !tc.ok {
			return nil, nil
		}
	}
	if len(cand) <= 1 {
		return append([]int(nil), cand...), nil
	}
	c1, c2 := cand[:len(cand)/2], cand[len(cand)/2:]
	setMask(bg, c1, true)
	d2, err := s.quickXplain(lits, bg, true, c2)
	setMask(bg, c1, false)
	if err != nil {
		return nil, err
	}
	setMask(bg, d2, true)
	d1, err := s.quickXplain(lits, bg, len(d2) > 0, c1)
	setMask(bg, d2, false)
	if err != nil {
		return nil, err
	}
	return append(d1, d2...), nil
}

func setMask(mask []bool, idx []int, v bool) {
	for _, i := range idx {
		mask[i] = v
	}
}

// linear is a linearized arithmetic expression: sum of monomials plus a
// constant.
type linear struct {
	monomials []simplex.Monomial
	constant  *big.Rat
}

// linearize flattens an arithmetic term into monomials over leaf variables.
func linearize(b *term.Builder, t term.T, leaf func(term.T) simplex.VarID) linear {
	switch b.Op(t) {
	case term.OpIntLit, term.OpRatLit:
		return linear{constant: b.RatVal(t)}
	case term.OpAdd:
		out := linear{constant: new(big.Rat)}
		for _, a := range b.Args(t) {
			la := linearize(b, a, leaf)
			out.monomials = append(out.monomials, la.monomials...)
			out.constant.Add(out.constant, la.constant)
		}
		return out
	case term.OpSub:
		args := b.Args(t)
		la := linearize(b, args[0], leaf)
		lb := linearize(b, args[1], leaf)
		out := linear{constant: new(big.Rat).Sub(la.constant, lb.constant)}
		out.monomials = append(out.monomials, la.monomials...)
		for _, m := range lb.monomials {
			out.monomials = append(out.monomials, simplex.Monomial{Coeff: new(big.Rat).Neg(m.Coeff), Var: m.Var})
		}
		return out
	case term.OpMul:
		args := b.Args(t)
		k := b.RatVal(args[0])
		la := linearize(b, args[1], leaf)
		out := linear{constant: new(big.Rat).Mul(k, la.constant)}
		for _, m := range la.monomials {
			out.monomials = append(out.monomials, simplex.Monomial{Coeff: new(big.Rat).Mul(k, m.Coeff), Var: m.Var})
		}
		return out
	default:
		return linear{
			monomials: []simplex.Monomial{{Coeff: big.NewRat(1, 1), Var: leaf(t)}},
			constant:  new(big.Rat),
		}
	}
}
