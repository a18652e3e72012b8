// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-literal watching, first-UIP conflict analysis, VSIDS-style
// branching with phase saving, and Luby restarts. It is the propositional
// core of Sidecar's SMT solver, standing in for the role Z3 plays in the
// paper's implementation.
package sat

import (
	"fmt"

	"scooter/internal/smt/limits"
)

// Var is a propositional variable, numbered from 0.
type Var int32

// Lit is a literal: variable times two, plus one if negated.
type Lit int32

// MkLit constructs a literal for v, negated if neg.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
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

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// clause is a disjunction of literals. Learnt clauses carry activity for
// deletion heuristics.
type clause struct {
	lits   []Lit
	learnt bool
	act    float64
}

// Solver is a CDCL SAT solver. Zero value is not usable; call New.
type Solver struct {
	clauses []*clause // problem clauses
	learnts []*clause // learnt clauses

	watches [][]*clause // per literal: clauses watching it

	assigns  []lbool // per var
	level    []int32 // per var: decision level of assignment
	reason   []*clause
	polarity []bool // per var: saved phase (last assigned value)

	activity []float64 // per var: VSIDS activity
	varInc   float64
	order    *varHeap

	trail    []Lit
	trailLim []int32 // trail index per decision level
	qhead    int

	ok bool // false once the clause set is known unsatisfiable

	seen      []bool // scratch for conflict analysis
	conflicts int64
	decisions int64
	props     int64
	restarts  int64

	clauseInc float64
	// maxLearnts triggers learnt-clause reduction; it grows geometrically
	// so the clause database stays bounded relative to the problem.
	maxLearnts int

	// MaxConflicts, when positive, caps the total conflicts one Solve call
	// may spend (across restarts). Exhausting it returns Unknown with
	// Exhaustion() reporting the conflict budget.
	MaxConflicts int64
	// Limits, when set, is polled in the conflict loop so deadlines and
	// cancellation interrupt the search.
	Limits *limits.Checker

	conflictLimit int64 // lifetime-conflict value that ends this Solve; 0 = none
	why           *limits.Exhausted
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1.0, clauseInc: 1.0, order: newVarHeap(), maxLearnts: 4000}
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v, s.activity)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -v
	}
	return v
}

// Value returns the model value of v after a Sat result.
func (s *Solver) Value(v Var) bool { return s.assigns[v] == lTrue }

// AddClause adds a clause. Returns false if the solver becomes trivially
// unsatisfiable. Must be called at decision level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Clauses may arrive between Solve calls (the SMT loop's blocking
	// lemmas) while the trail still holds the last model; undo it first.
	s.backtrackTo(0)
	// Normalise: drop duplicate and false literals, detect tautologies and
	// satisfied clauses.
	out := lits[:0:0]
	seen := map[Lit]bool{}
	for _, l := range lits {
		switch {
		case s.valueLit(l) == lTrue || seen[l.Not()]:
			return true // already satisfied or tautological
		case s.valueLit(l) == lFalse || seen[l]:
			continue
		default:
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	// Watch the first two literals.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Neg())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.polarity[v] = !l.Neg()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.props++
		ws := s.watches[p]
		i, j := 0, 0
		var confl *clause
		for i < len(ws) {
			c := ws[i]
			i++
			// Ensure the false literal is at position 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the first watch is true, the clause is satisfied.
			if s.valueLit(c.lits[0]) == lTrue {
				ws[j] = c
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = c
			j++
			if s.valueLit(c.lits[0]) == lFalse {
				// Conflict: copy remaining watches and bail.
				for i < len(ws) {
					ws[j] = ws[i]
					j++
					i++
				}
				confl = c
			} else {
				s.uncheckedEnqueue(c.lits[0], c)
			}
		}
		s.watches[p] = ws[:j]
		if confl != nil {
			return confl
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{0} // reserve slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	var marked []Var // every var with a seen flag set, for cleanup

	for {
		if confl.learnt {
			s.bumpClause(confl)
		}
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				marked = append(marked, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Minimise: remove literals implied by the rest of the clause.
	learnt = s.minimize(learnt)

	// Compute backtrack level: second-highest level in the clause.
	btLevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, v := range marked {
		s.seen[v] = false
	}
	return learnt, btLevel
}

// minimize removes clause literals whose reason antecedents are all already
// in the clause (local minimisation).
func (s *Solver) minimize(learnt []Lit) []Lit {
	out := learnt[:1]
	for _, l := range learnt[1:] {
		r := s.reason[l.Var()]
		if r == nil {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range r.lits {
			if q.Var() == l.Var() {
				continue
			}
			if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	return out
}

func (s *Solver) backtrackTo(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(limit); i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.level[v] = -1
		s.order.insert(v, s.activity)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.clauseInc
	if c.act > 1e100 {
		for _, lc := range s.learnts {
			lc.act *= 1e-100
		}
		s.clauseInc *= 1e-100
	}
}

// locked reports whether c is the reason for a current assignment.
func (s *Solver) locked(c *clause) bool {
	return s.valueLit(c.lits[0]) == lTrue && s.reason[c.lits[0].Var()] == c
}

// detach removes c from the watch lists of its two watched literals.
func (s *Solver) detach(c *clause) {
	for _, l := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[l]
		for i, wc := range ws {
			if wc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// reduceDB halves the learnt-clause database, keeping binary, locked, and
// high-activity clauses (the standard MiniSat scheme).
func (s *Solver) reduceDB() {
	sortClausesByActivity(s.learnts)
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if len(c.lits) <= 2 || s.locked(c) || i >= limit {
			kept = append(kept, c)
			continue
		}
		s.detach(c)
	}
	s.learnts = kept
	s.maxLearnts += s.maxLearnts / 10
}

// sortClausesByActivity orders ascending by activity so the first half is
// the deletion candidate set.
func sortClausesByActivity(cs []*clause) {
	// Insertion-free: use sort.Slice equivalent without importing sort in
	// the hot path — the slice is small relative to solver work.
	quickSortClauses(cs, 0, len(cs)-1)
}

func quickSortClauses(cs []*clause, lo, hi int) {
	for lo < hi {
		pivot := cs[(lo+hi)/2].act
		i, j := lo, hi
		for i <= j {
			for cs[i].act < pivot {
				i++
			}
			for cs[j].act > pivot {
				j--
			}
			if i <= j {
				cs[i], cs[j] = cs[j], cs[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortClauses(cs, lo, j)
			lo = i
		} else {
			quickSortClauses(cs, i, hi)
			hi = j
		}
	}
}

func (s *Solver) pickBranchVar() Var {
	for {
		v, ok := s.order.pop(s.activity)
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// luby returns the i-th element of the Luby restart sequence scaled by base.
func luby(base int64, i int64) int64 {
	// Find the subsequence containing index i.
	var k int64 = 1
	for size := int64(1); size < i+1; size = 2*size + 1 {
		k++
	}
	size := int64(1)<<uint(k) - 1
	for size-1 != i {
		size = (size - 1) >> 1
		k--
		i = i % size
	}
	return base << uint(k-1)
}

// Solve determines satisfiability. On Sat, the model is available through
// Value. When the conflict budget (MaxConflicts) runs out or Limits
// expires, Solve returns Unknown and Exhaustion() reports why; the solver
// stays usable (learnt clauses are kept) for a later retry.
func (s *Solver) Solve() Status {
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	s.why = nil
	s.conflictLimit = 0
	if s.MaxConflicts > 0 {
		s.conflictLimit = s.conflicts + s.MaxConflicts
	}

	restart := int64(0)
	for {
		if s.why == nil {
			if ex := s.Limits.Expired(); ex != nil {
				s.why = ex
			}
		}
		if s.why != nil {
			s.backtrackTo(0)
			return Unknown
		}
		restartBudget := luby(100, restart)
		st := s.search(restartBudget)
		if st != Unknown {
			if st == Sat {
				return Sat
			}
			s.backtrackTo(0)
			return st
		}
		s.backtrackTo(0)
		restart++
		s.restarts++
	}
}

// Exhaustion reports why the last Solve returned Unknown; nil after a Sat
// or Unsat verdict.
func (s *Solver) Exhaustion() *limits.Exhausted { return s.why }

// search runs CDCL until a verdict, a restart (Unknown with no exhaustion
// recorded), or resource exhaustion (Unknown with s.why set).
func (s *Solver) search(restartBudget int64) Status {
	conflictsHere := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				// A root conflict is a definitive refutation; it outranks
				// any budget so exhaustion never shadows Unsat.
				s.ok = false
				return Unsat
			}
			// The conflict loop is the natural poll point: conflicts
			// dominate runtime on hard instances, and each one is costly
			// enough that a clock read is in the noise.
			if ex := s.Limits.Expired(); ex != nil {
				s.why = ex
				return Unknown
			}
			if s.conflictLimit > 0 && s.conflicts >= s.conflictLimit {
				s.why = limits.Budget(limits.ConflictBudget, "after %d conflicts", s.MaxConflicts)
				return Unknown
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, act: s.clauseInc}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if len(s.learnts) > s.maxLearnts {
				// Reduce at a restart boundary so no mid-trail clause is a
				// hidden reason: backtrack first, then drop cold clauses.
				s.backtrackTo(0)
				s.reduceDB()
			}
			if conflictsHere >= restartBudget {
				return Unknown // restart
			}
			continue
		}

		v := s.pickBranchVar()
		if v == -1 {
			return Sat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, !s.polarity[v]), nil)
	}
}

// Stats reports basic search statistics.
func (s *Solver) Stats() (conflicts, decisions, propagations int64) {
	return s.conflicts, s.decisions, s.props
}

// Restarts reports how many Luby restarts the solver has taken.
func (s *Solver) Restarts() int64 { return s.restarts }
