package solver

import (
	"math/big"

	"scooter/internal/smt/euf"
	"scooter/internal/smt/term"
)

// Model is a satisfying assignment: truth values for atoms, congruence
// classes for uninterpreted terms, and numeric values for arithmetic terms.
type Model struct {
	b *term.Builder

	atomVal map[term.T]bool
	classes map[term.T]term.T
	classID map[term.T]int
	numVal  map[term.T]*big.Rat
	appReps map[string]term.T
	// trueConst anchors the class boolean applications compare against.
	trueConst term.T
}

// buildModel assembles a model from the theory artifacts.
func (s *Solver) buildModel(lits []tlit, tc theoryResult) *Model {
	m := &Model{
		b:         s.B,
		atomVal:   map[term.T]bool{},
		classes:   tc.euf.Classes,
		classID:   map[term.T]int{},
		numVal:    map[term.T]*big.Rat{},
		appReps:   tc.euf.AppReps,
		trueConst: s.trueConst,
	}
	for _, l := range lits {
		m.atomVal[l.atom] = l.val
	}
	// Stable class ids in term order.
	nextID := 0
	reps := map[term.T]int{}
	for t := term.T(0); int(t) < s.B.NumTerms(); t++ {
		rep, ok := m.classes[t]
		if !ok {
			continue
		}
		if _, ok := reps[rep]; !ok {
			reps[rep] = nextID
			nextID++
		}
		m.classID[t] = reps[rep]
	}
	for t, v := range tc.liaVars {
		m.numVal[t] = tc.lia.Value(v)
	}
	return m
}

// Rep returns the congruence-class representative of t. Applications the
// solver never saw directly are resolved through the congruence signature
// table (e.g. member(i, i) when the formula asserted member(u, i) with
// u ~ i); other unseen terms are their own representative.
func (m *Model) Rep(t term.T) term.T {
	if rep, ok := m.classes[t]; ok {
		return rep
	}
	if m.b.Op(t) == term.OpApp && m.appReps != nil {
		args := m.b.Args(t)
		reps := make([]term.T, len(args))
		for i, a := range args {
			reps[i] = m.Rep(a)
		}
		if rep, ok := m.appReps[euf.SigKey(m.b.Name(t), reps)]; ok {
			return rep
		}
	}
	return t
}

// SameClass reports whether two terms are congruent in the model.
func (m *Model) SameClass(a, b term.T) bool { return m.Rep(a) == m.Rep(b) }

// ClassID returns a small stable integer identifying t's congruence class.
func (m *Model) ClassID(t term.T) int {
	if id, ok := m.classID[t]; ok {
		return id
	}
	return int(t) + 1_000_000 // unseen terms get unique synthetic ids
}

// NumVal returns the numeric value of an arithmetic term, computing over
// +,-,* from leaf values. Leaves without a recorded value default to zero
// (they were unconstrained).
func (m *Model) NumVal(t term.T) *big.Rat {
	b := m.b
	switch b.Op(t) {
	case term.OpIntLit, term.OpRatLit:
		return b.RatVal(t)
	case term.OpAdd:
		out := new(big.Rat)
		for _, a := range b.Args(t) {
			out.Add(out, m.NumVal(a))
		}
		return out
	case term.OpSub:
		args := b.Args(t)
		return new(big.Rat).Sub(m.NumVal(args[0]), m.NumVal(args[1]))
	case term.OpMul:
		args := b.Args(t)
		return new(big.Rat).Mul(b.RatVal(args[0]), m.NumVal(args[1]))
	case term.OpIte:
		args := b.Args(t)
		if m.EvalBool(args[0]) {
			return m.NumVal(args[1])
		}
		return m.NumVal(args[2])
	default:
		if v, ok := m.numVal[t]; ok {
			return v
		}
		// Resolve congruent applications to a term with a recorded value.
		if rep := m.Rep(t); rep != t {
			if v, ok := m.numVal[rep]; ok {
				return v
			}
			// Any class member with a value will do: the simplex received
			// equalities for all same-class arithmetic terms.
			for member, r := range m.classes {
				if r == rep {
					if v, ok := m.numVal[member]; ok {
						return v
					}
				}
			}
		}
		return new(big.Rat)
	}
}

// EvalBool evaluates any boolean-sorted term under the model.
func (m *Model) EvalBool(t term.T) bool {
	b := m.b
	switch b.Op(t) {
	case term.OpTrue:
		return true
	case term.OpFalse:
		return false
	case term.OpNot:
		return !m.EvalBool(b.Args(t)[0])
	case term.OpAnd:
		for _, a := range b.Args(t) {
			if !m.EvalBool(a) {
				return false
			}
		}
		return true
	case term.OpOr:
		for _, a := range b.Args(t) {
			if m.EvalBool(a) {
				return true
			}
		}
		return false
	case term.OpEq:
		args := b.Args(t)
		if b.SortOf(args[0]).Kind == term.SortInt || b.SortOf(args[0]).Kind == term.SortReal {
			return m.NumVal(args[0]).Cmp(m.NumVal(args[1])) == 0
		}
		return m.SameClass(args[0], args[1])
	case term.OpLe:
		args := b.Args(t)
		return m.NumVal(args[0]).Cmp(m.NumVal(args[1])) <= 0
	case term.OpLt:
		args := b.Args(t)
		return m.NumVal(args[0]).Cmp(m.NumVal(args[1])) < 0
	case term.OpApp, term.OpConst:
		// Boolean-sorted application or constant: first consult the atom
		// assignment, then the congruence class against $true (resolving
		// congruent applications the formula never mentioned directly).
		if v, ok := m.atomVal[t]; ok {
			return v
		}
		if rep := m.Rep(t); rep != t {
			if v, ok := m.atomVal[rep]; ok {
				return v
			}
			return m.trueConst != term.NilTerm && rep == m.Rep(m.trueConst)
		}
		return false
	case term.OpDistinct:
		args := b.Args(t)
		for i := 0; i < len(args); i++ {
			for j := i + 1; j < len(args); j++ {
				eq := b.Eq(args[i], args[j])
				if m.EvalBool(eq) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// invalidAtom returns the index of a theory atom whose model evaluation
// disagrees with its SAT assignment, or -1 when the model is coherent.
func (s *Solver) invalidAtom(lits []tlit, m *Model) int {
	for i, l := range lits {
		at := l.atom
		var ev bool
		switch s.B.Op(at) {
		case term.OpEq, term.OpLe, term.OpLt:
			ev = m.EvalBool(at)
		case term.OpApp:
			ev = m.SameClass(at, s.trueConst)
		default:
			continue
		}
		if ev != l.val {
			return i
		}
	}
	return -1
}
