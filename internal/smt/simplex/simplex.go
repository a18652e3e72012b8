// Package simplex decides conjunctions of linear arithmetic constraints
// over rationals and integers: a general simplex with variable bounds in
// the style of Dutertre & de Moura (the algorithm inside Z3/Yices), plus
// branch-and-bound for integer variables. Sidecar lowers Scooter's I64,
// F64, and DateTime comparisons to this theory.
package simplex

import (
	"fmt"
	"math/big"

	"scooter/internal/smt/limits"
)

// VarID identifies a variable.
type VarID int

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	Le Op = iota
	Lt
	Ge
	Gt
	EqOp
)

func (o Op) String() string {
	switch o {
	case Le:
		return "<="
	case Lt:
		return "<"
	case Ge:
		return ">="
	case Gt:
		return ">"
	case EqOp:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Monomial is coeff * var.
type Monomial struct {
	Coeff *big.Rat
	Var   VarID
}

// Constraint is sum(terms) op K.
type Constraint struct {
	Terms []Monomial
	Op    Op
	K     *big.Rat
}

// Solver decides a conjunction of constraints. It is not incremental: build,
// add constraints, call Check once.
type Solver struct {
	numVars int
	isInt   []bool

	constraints []Constraint

	// Tableau state (built in Check).
	total int                      // structural + slack variables
	rows  map[int]map[int]*big.Rat // basic var -> expression over nonbasic
	basic map[int]bool
	lower []*QDelta // per var, nil = unbounded
	upper []*QDelta
	// Each beta entry and each row coefficient owns its rationals, so
	// pivots update them in place.
	beta []QDelta // current assignment
	// concDelta memoises concreteDelta for the current assignment; nil until
	// Value first needs it, and reset whenever beta changes.
	concDelta *big.Rat

	// MaxPivots bounds the pivot count as a defensive measure; Bland's
	// rule guarantees termination, so hitting it indicates a bug — but
	// rather than crash, Check reports a typed exhaustion status.
	MaxPivots int
	// MaxBranchDepth bounds integer branch-and-bound recursion.
	MaxBranchDepth int
	// Limits, when set, is polled in the pivot loop so a wall-clock
	// deadline or cancellation interrupts even a single hard tableau.
	Limits *limits.Checker
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		rows: map[int]map[int]*big.Rat{}, basic: map[int]bool{},
		MaxPivots: 200000, MaxBranchDepth: 40,
	}
}

// NewVar allocates a variable; integer variables participate in
// branch-and-bound.
func (s *Solver) NewVar(isInt bool) VarID {
	v := VarID(s.numVars)
	s.numVars++
	s.isInt = append(s.isInt, isInt)
	return v
}

// AddConstraint records a constraint for the next Check.
func (s *Solver) AddConstraint(c Constraint) {
	s.constraints = append(s.constraints, c)
}

// Check decides feasibility. On success, Value returns a model. A non-nil
// error is always a *limits.Exhausted status (pivot budget, branch budget,
// deadline, or cancellation): the query was abandoned, not refuted.
func (s *Solver) Check() (bool, error) {
	ok, err := s.checkRational()
	if err != nil || !ok {
		return false, err
	}
	return s.branchAndBound(s.MaxBranchDepth)
}

// checkRational builds the tableau and runs the primal bounded simplex.
func (s *Solver) checkRational() (bool, error) {
	nSlack := len(s.constraints)
	s.total = s.numVars + nSlack
	s.rows = map[int]map[int]*big.Rat{}
	s.basic = map[int]bool{}
	s.lower = make([]*QDelta, s.total)
	s.upper = make([]*QDelta, s.total)
	s.beta = make([]QDelta, s.total)
	s.concDelta = nil
	for i := range s.beta {
		s.beta[i] = QDInt(0)
	}

	for ci, c := range s.constraints {
		sv := s.numVars + ci
		// Row: sv = sum(terms).
		row := map[int]*big.Rat{}
		for _, m := range c.Terms {
			if m.Coeff.Sign() == 0 {
				continue
			}
			if cur, ok := row[int(m.Var)]; ok {
				cur.Add(cur, m.Coeff)
				if cur.Sign() == 0 {
					delete(row, int(m.Var))
				}
			} else {
				row[int(m.Var)] = new(big.Rat).Set(m.Coeff)
			}
		}
		s.rows[sv] = row
		s.basic[sv] = true
		// Bounds on the slack var.
		k := QDRat(c.K)
		switch c.Op {
		case Le:
			s.tightenUpper(sv, k)
		case Lt:
			s.tightenUpper(sv, QD(c.K, big.NewRat(-1, 1)))
		case Ge:
			s.tightenLower(sv, k)
		case Gt:
			s.tightenLower(sv, QD(c.K, big.NewRat(1, 1)))
		case EqOp:
			s.tightenLower(sv, k)
			s.tightenUpper(sv, k)
		}
	}
	// Quick infeasibility: crossed bounds.
	for v := 0; v < s.total; v++ {
		if s.lower[v] != nil && s.upper[v] != nil && s.lower[v].Cmp(*s.upper[v]) > 0 {
			return false, nil
		}
	}
	// Initialise nonbasic variables within bounds, then recompute basics.
	for v := 0; v < s.total; v++ {
		if s.basic[v] {
			continue
		}
		if s.lower[v] != nil && s.beta[v].Cmp(*s.lower[v]) < 0 {
			s.beta[v] = s.lower[v].Clone()
		} else if s.upper[v] != nil && s.beta[v].Cmp(*s.upper[v]) > 0 {
			s.beta[v] = s.upper[v].Clone()
		}
	}
	for bv, row := range s.rows {
		s.beta[bv] = s.rowValue(row)
	}
	return s.solve()
}

func (s *Solver) tightenLower(v int, q QDelta) {
	if s.lower[v] == nil || q.Cmp(*s.lower[v]) > 0 {
		qq := q.Clone()
		s.lower[v] = &qq
	}
}

func (s *Solver) tightenUpper(v int, q QDelta) {
	if s.upper[v] == nil || q.Cmp(*s.upper[v]) < 0 {
		qq := q.Clone()
		s.upper[v] = &qq
	}
}

func (s *Solver) rowValue(row map[int]*big.Rat) QDelta {
	val := QDInt(0)
	tmp := new(big.Rat)
	for v, coeff := range row {
		val.addMul(coeff, s.beta[v], tmp)
	}
	return val
}

// solve runs the check loop with Bland's rule.
func (s *Solver) solve() (bool, error) {
	for pivots := 0; pivots < s.MaxPivots; pivots++ {
		// Poll for deadline/cancellation at a small stride: pivots are
		// heavyweight (big.Rat row updates), so the check is in the noise.
		if pivots&63 == 0 {
			if ex := s.Limits.Expired(); ex != nil {
				return false, ex
			}
		}
		// Find the smallest-index basic variable violating a bound.
		violated := -1
		below := false
		for v := 0; v < s.total; v++ {
			if !s.basic[v] {
				continue
			}
			if s.lower[v] != nil && s.beta[v].Cmp(*s.lower[v]) < 0 {
				violated, below = v, true
				break
			}
			if s.upper[v] != nil && s.beta[v].Cmp(*s.upper[v]) > 0 {
				violated, below = v, false
				break
			}
		}
		if violated == -1 {
			return true, nil
		}
		row := s.rows[violated]
		// Find the smallest-index nonbasic variable that can compensate.
		pivot := -1
		for v := 0; v < s.total; v++ {
			coeff, ok := row[v]
			if !ok || coeff.Sign() == 0 {
				continue
			}
			if below {
				// Need to increase basic var: increase v if coeff>0 and
				// v below upper; or decrease v if coeff<0 and v above lower.
				if coeff.Sign() > 0 && (s.upper[v] == nil || s.beta[v].Cmp(*s.upper[v]) < 0) {
					pivot = v
					break
				}
				if coeff.Sign() < 0 && (s.lower[v] == nil || s.beta[v].Cmp(*s.lower[v]) > 0) {
					pivot = v
					break
				}
			} else {
				if coeff.Sign() > 0 && (s.lower[v] == nil || s.beta[v].Cmp(*s.lower[v]) > 0) {
					pivot = v
					break
				}
				if coeff.Sign() < 0 && (s.upper[v] == nil || s.beta[v].Cmp(*s.upper[v]) < 0) {
					pivot = v
					break
				}
			}
		}
		if pivot == -1 {
			return false, nil // no compensating variable: infeasible
		}
		var target QDelta
		if below {
			target = s.lower[violated].Clone()
		} else {
			target = s.upper[violated].Clone()
		}
		s.pivotAndUpdate(violated, pivot, target)
	}
	return false, limits.Budget(limits.PivotBudget, "after %d pivots", s.MaxPivots)
}

// pivotAndUpdate makes `enter` basic in place of `leave`, setting the value
// of `leave` to target.
func (s *Solver) pivotAndUpdate(leave, enter int, target QDelta) {
	row := s.rows[leave]
	a := row[enter]
	// leave = ... + a*enter + ...  =>  enter = (leave - rest)/a
	newRow := map[int]*big.Rat{}
	inv := new(big.Rat).Inv(a)
	for v, c := range row {
		if v == enter {
			continue
		}
		nc := new(big.Rat).Mul(c, inv)
		nc.Neg(nc)
		newRow[v] = nc
	}
	newRow[leave] = new(big.Rat).Set(inv)
	delete(s.rows, leave)
	s.basic[leave] = false
	s.rows[enter] = newRow
	s.basic[enter] = true

	// Update values: delta on enter to move leave to target.
	delta := target.Sub(s.beta[leave])
	delta.R.Mul(delta.R, inv)
	delta.D.Mul(delta.D, inv)
	s.beta[enter].R.Add(s.beta[enter].R, delta.R)
	s.beta[enter].D.Add(s.beta[enter].D, delta.D)
	s.beta[leave] = target
	s.concDelta = nil

	// Substitute enter's definition into every other row. Of the nonbasic
	// variables only enter moved, so a row holding enter with coefficient c
	// moves by exactly c·delta (the update step of Dutertre & de Moura).
	tmp := new(big.Rat)
	for bv, r := range s.rows {
		if bv == enter {
			continue
		}
		c, ok := r[enter]
		if !ok || c.Sign() == 0 {
			continue
		}
		delete(r, enter) // c now belongs to this loop alone
		for v, ec := range newRow {
			if cur, ok := r[v]; ok {
				cur.Add(cur, tmp.Mul(c, ec))
				if cur.Sign() == 0 {
					delete(r, v)
				}
			} else {
				r[v] = new(big.Rat).Mul(c, ec)
			}
		}
		s.beta[bv].addMul(c, delta, tmp)
	}
}

// concreteDelta picks a positive rational value for δ small enough that all
// strict bounds remain satisfied when QDelta values are concretised.
func (s *Solver) concreteDelta() *big.Rat {
	delta := big.NewRat(1, 1)
	consider := func(diffR, diffD *big.Rat) {
		// Need diffR + diffD*δ >= 0 with diffR > 0, diffD < 0:
		// δ <= diffR / -diffD.
		if diffR.Sign() > 0 && diffD.Sign() < 0 {
			bound := new(big.Rat).Quo(diffR, new(big.Rat).Neg(diffD))
			if bound.Cmp(delta) < 0 {
				delta.Set(bound)
			}
		}
	}
	for v := 0; v < s.total; v++ {
		if s.lower[v] != nil {
			diff := s.beta[v].Sub(*s.lower[v])
			consider(diff.R, diff.D)
		}
		if s.upper[v] != nil {
			diff := (*s.upper[v]).Sub(s.beta[v])
			consider(diff.R, diff.D)
		}
	}
	// Halve to stay strictly inside.
	return delta.Mul(delta, big.NewRat(1, 2))
}

// Value returns the model value of v after a successful Check.
func (s *Solver) Value(v VarID) *big.Rat {
	if s.concDelta == nil {
		s.concDelta = s.concreteDelta()
	}
	q := s.beta[v]
	out := new(big.Rat).Mul(q.D, s.concDelta)
	return out.Add(out, q.R)
}

// branchAndBound searches for an integral assignment to the integer
// variables by recursive bound splitting. Exhausting the depth cap is
// reported as a typed status, not as infeasibility: giving up on a branch
// must never masquerade as a refutation.
func (s *Solver) branchAndBound(depth int) (bool, error) {
	v := s.fractionalIntVar()
	if v == -1 {
		return true, nil
	}
	if depth == 0 {
		return false, limits.Budget(limits.BranchBudget, "branch depth %d", s.MaxBranchDepth)
	}
	val := s.Value(VarID(v))
	floor := ratFloor(val)

	// Branch x <= floor.
	lo := cloneProblem(s)
	lo.AddConstraint(Constraint{
		Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: VarID(v)}},
		Op:    Le, K: new(big.Rat).SetInt(floor),
	})
	if ok, err := s.branchInto(lo, depth); err != nil || ok {
		return ok, err
	}
	// Branch x >= floor+1.
	hi := cloneProblem(s)
	ceil := new(big.Int).Add(floor, big.NewInt(1))
	hi.AddConstraint(Constraint{
		Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: VarID(v)}},
		Op:    Ge, K: new(big.Rat).SetInt(ceil),
	})
	return s.branchInto(hi, depth)
}

// branchInto solves one branch-and-bound child and adopts its model on
// success.
func (s *Solver) branchInto(child *Solver, depth int) (bool, error) {
	ok, err := child.checkRational()
	if err != nil || !ok {
		return false, err
	}
	ok, err = child.branchAndBound(depth - 1)
	if err != nil || !ok {
		return false, err
	}
	s.adopt(child)
	return true, nil
}

// fractionalIntVar returns a structural integer variable with a
// non-integral model value, or -1.
func (s *Solver) fractionalIntVar() int {
	for v := 0; v < s.numVars; v++ {
		if !s.isInt[v] {
			continue
		}
		if !s.Value(VarID(v)).IsInt() {
			return v
		}
	}
	return -1
}

// cloneProblem copies the constraint set (not the tableau) for branching.
// Budgets and the limits checker carry over so every branch honours them.
func cloneProblem(s *Solver) *Solver {
	n := New()
	n.numVars = s.numVars
	n.isInt = append([]bool(nil), s.isInt...)
	n.constraints = append([]Constraint(nil), s.constraints...)
	n.MaxPivots = s.MaxPivots
	n.MaxBranchDepth = s.MaxBranchDepth
	n.Limits = s.Limits
	return n
}

// adopt copies a sub-solver's model state back into s.
func (s *Solver) adopt(o *Solver) {
	s.total = o.total
	s.rows = o.rows
	s.basic = o.basic
	s.lower = o.lower
	s.upper = o.upper
	s.beta = o.beta
	s.concDelta = o.concDelta
	// Structural variables beyond o's slack count keep their values; Value
	// only reads beta for structural vars which both share.
}

func ratFloor(r *big.Rat) *big.Int {
	q := new(big.Int)
	m := new(big.Int)
	q.QuoRem(r.Num(), r.Denom(), m)
	if m.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q
}
