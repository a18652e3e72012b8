package cnf

import (
	"math/rand"
	"testing"

	"scooter/internal/smt/sat"
	"scooter/internal/smt/term"
)

// evalTerm evaluates a pure-boolean term under an assignment of the
// variables a..d.
func evalTerm(b *term.Builder, t term.T, assign map[string]bool) bool {
	switch b.Op(t) {
	case term.OpTrue:
		return true
	case term.OpFalse:
		return false
	case term.OpNot:
		return !evalTerm(b, b.Args(t)[0], assign)
	case term.OpAnd:
		for _, a := range b.Args(t) {
			if !evalTerm(b, a, assign) {
				return false
			}
		}
		return true
	case term.OpOr:
		for _, a := range b.Args(t) {
			if evalTerm(b, a, assign) {
				return true
			}
		}
		return false
	case term.OpConst:
		return assign[b.Name(t)]
	}
	panic("unexpected op")
}

// randBool builds a random boolean term over the given variables.
func randBool(b *term.Builder, rng *rand.Rand, vars []term.T, depth int) term.T {
	if depth == 0 {
		v := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			return b.Not(v)
		}
		return v
	}
	l := randBool(b, rng, vars, depth-1)
	r := randBool(b, rng, vars, depth-1)
	if rng.Intn(2) == 0 {
		return b.And(l, r)
	}
	return b.Or(l, r)
}

// TestTseitinEquisatisfiable: for random boolean formulas, the Tseitin
// encoding is satisfiable exactly when brute-force evaluation finds a
// satisfying assignment, and the SAT model projects to one.
func TestTseitinEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "c", "d"}
	for iter := 0; iter < 300; iter++ {
		b := term.NewBuilder()
		vars := make([]term.T, len(names))
		for i, n := range names {
			vars[i] = b.Const(n, term.Bool)
		}
		f := randBool(b, rng, vars, 1+rng.Intn(3))

		s := sat.New()
		conv := New(b, s)
		conv.Assert(f)
		got := s.Solve() == sat.Sat

		want := false
		for m := 0; m < 16; m++ {
			assign := map[string]bool{}
			for i, n := range names {
				assign[n] = m&(1<<uint(i)) != 0
			}
			if evalTerm(b, f, assign) {
				want = true
				break
			}
		}
		if got != want {
			t.Fatalf("iter %d: sat=%v brute=%v formula=%s", iter, got, want, b.String(f))
		}
		if got {
			// The model must satisfy the formula.
			assign := map[string]bool{}
			for _, at := range conv.Atoms() {
				assign[b.Name(at.T)] = s.Value(at.V)
			}
			if !evalTerm(b, f, assign) {
				t.Fatalf("iter %d: model does not satisfy %s", iter, b.String(f))
			}
		}
	}
}

func TestAssertTrueAndFalse(t *testing.T) {
	b := term.NewBuilder()
	s := sat.New()
	conv := New(b, s)
	conv.Assert(b.True())
	if s.Solve() != sat.Sat {
		t.Fatal("true must be sat")
	}
	conv.Assert(b.False())
	if s.Solve() != sat.Unsat {
		t.Fatal("false must be unsat")
	}
}

func TestAtomRegistry(t *testing.T) {
	b := term.NewBuilder()
	s := sat.New()
	conv := New(b, s)
	x := b.Const("x", term.Int)
	atom := b.Le(x, b.IntLit(3))
	other := b.Lt(x, b.IntLit(0))
	conv.Assert(b.Or(atom, other))
	atoms := conv.Atoms()
	if len(atoms) != 2 || atoms[0].T != atom || atoms[1].T != other {
		t.Fatalf("atoms = %v, want [%v %v] in creation order", atoms, atom, other)
	}
}
