// Package cnf converts boolean term structure into SAT clauses via the
// Tseitin transformation, mapping theory atoms to SAT variables.
package cnf

import (
	"scooter/internal/smt/sat"
	"scooter/internal/smt/term"
)

// Converter maps terms to SAT literals, introducing definition variables
// for boolean connectives and plain variables for theory atoms.
type Converter struct {
	B   *term.Builder
	Sat *sat.Solver

	lits  map[term.T]sat.Lit
	atoms []Atom // theory atoms only, in creation order
}

// Atom is a theory atom (or free boolean constant) and its SAT variable.
type Atom struct {
	T term.T
	V sat.Var
}

// New returns a converter targeting the given SAT solver.
func New(b *term.Builder, s *sat.Solver) *Converter {
	return &Converter{B: b, Sat: s, lits: map[term.T]sat.Lit{}}
}

// Atoms returns the theory atoms (and free boolean constants) with their
// SAT variables in creation order, so a walk over them visits the same
// atoms in the same order on every run. The slice must not be modified.
func (c *Converter) Atoms() []Atom { return c.atoms }

// Assert adds clauses forcing t to be true.
func (c *Converter) Assert(t term.T) {
	switch c.B.Op(t) {
	case term.OpTrue:
		return
	case term.OpFalse:
		c.Sat.AddClause() // empty clause: unsat
		return
	case term.OpAnd:
		for _, a := range c.B.Args(t) {
			c.Assert(a)
		}
		return
	}
	c.Sat.AddClause(c.Lit(t))
}

// Lit returns a SAT literal equisatisfiable with t, adding definition
// clauses as needed.
func (c *Converter) Lit(t term.T) sat.Lit {
	if l, ok := c.lits[t]; ok {
		return l
	}
	var l sat.Lit
	switch c.B.Op(t) {
	case term.OpTrue, term.OpFalse:
		v := c.Sat.NewVar()
		l = sat.MkLit(v, false)
		if c.B.Op(t) == term.OpTrue {
			c.Sat.AddClause(l)
		} else {
			c.Sat.AddClause(l.Not())
		}
	case term.OpNot:
		l = c.Lit(c.B.Args(t)[0]).Not()
	case term.OpAnd:
		args := c.B.Args(t)
		v := c.Sat.NewVar()
		l = sat.MkLit(v, false)
		// l -> each arg; (all args) -> l.
		big := make([]sat.Lit, 0, len(args)+1)
		big = append(big, l)
		for _, a := range args {
			al := c.Lit(a)
			c.Sat.AddClause(l.Not(), al)
			big = append(big, al.Not())
		}
		c.Sat.AddClause(big...)
	case term.OpOr:
		args := c.B.Args(t)
		v := c.Sat.NewVar()
		l = sat.MkLit(v, false)
		// l -> (a1 | ... | an); each arg -> l.
		big := make([]sat.Lit, 0, len(args)+1)
		big = append(big, l.Not())
		for _, a := range args {
			al := c.Lit(a)
			c.Sat.AddClause(l, al.Not())
			big = append(big, al)
		}
		c.Sat.AddClause(big...)
	default:
		// Theory atom (Eq, Le, Lt, boolean Const/App).
		v := c.Sat.NewVar()
		c.atoms = append(c.atoms, Atom{T: t, V: v})
		l = sat.MkLit(v, false)
	}
	c.lits[t] = l
	return l
}

// AddClauseTerms adds a clause of term literals (each a theory atom,
// boolean constant, or negation thereof).
func (c *Converter) AddClauseTerms(ts ...term.T) {
	lits := make([]sat.Lit, len(ts))
	for i, t := range ts {
		lits[i] = c.Lit(t)
	}
	c.Sat.AddClause(lits...)
}
