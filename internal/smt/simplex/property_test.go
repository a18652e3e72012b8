package simplex

import (
	"math/big"
	"math/rand"
	"testing"
)

// The property harness generates random small integer constraint systems
// and cross-checks the solver against brute-force enumeration over a
// bounded box. Soundness both ways:
//
//   - solver sat  ⇒ the returned model satisfies every constraint;
//   - solver unsat ⇒ enumeration over the box finds no solution (any
//     in-box solution would contradict the solver).
//
// Coefficients and bounds are chosen so that satisfiable systems always
// have an in-box witness, which makes the unsat check complete too.

type rawCon struct {
	coeffs []int64 // one per variable
	op     Op
	k      int64
}

func randSystem(rng *rand.Rand, nVars, nCons int) []rawCon {
	out := make([]rawCon, nCons)
	for i := range out {
		c := rawCon{coeffs: make([]int64, nVars), k: int64(rng.Intn(9) - 4)}
		for j := range c.coeffs {
			c.coeffs[j] = int64(rng.Intn(5) - 2) // -2..2
		}
		c.op = []Op{Le, Lt, Ge, Gt, EqOp}[rng.Intn(5)]
		out[i] = c
	}
	return out
}

func satisfies(cons []rawCon, assign []int64) bool {
	for _, c := range cons {
		var sum int64
		for j, a := range assign {
			sum += c.coeffs[j] * a
		}
		ok := false
		switch c.op {
		case Le:
			ok = sum <= c.k
		case Lt:
			ok = sum < c.k
		case Ge:
			ok = sum >= c.k
		case Gt:
			ok = sum > c.k
		case EqOp:
			ok = sum == c.k
		}
		if !ok {
			return false
		}
	}
	return true
}

// bruteSolve enumerates assignments in [-B, B]^n.
func bruteSolve(cons []rawCon, nVars int, bound int64) bool {
	assign := make([]int64, nVars)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == nVars {
			return satisfies(cons, assign)
		}
		for v := -bound; v <= bound; v++ {
			assign[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestSimplexIntegerAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sat, unsat := 0, 0
	for iter := 0; iter < 400; iter++ {
		nVars := 2 + rng.Intn(2)
		nCons := 1 + rng.Intn(5)
		cons := randSystem(rng, nVars, nCons)

		s := New()
		vars := make([]VarID, nVars)
		for i := range vars {
			vars[i] = s.NewVar(true)
			// Box the variables so brute force is complete: -6 <= x <= 6.
			s.AddConstraint(Constraint{
				Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
				Op:    Ge, K: big.NewRat(-6, 1),
			})
			s.AddConstraint(Constraint{
				Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
				Op:    Le, K: big.NewRat(6, 1),
			})
		}
		for _, c := range cons {
			terms := make([]Monomial, 0, nVars)
			for j, co := range c.coeffs {
				if co != 0 {
					terms = append(terms, Monomial{Coeff: big.NewRat(co, 1), Var: vars[j]})
				}
			}
			s.AddConstraint(Constraint{Terms: terms, Op: c.op, K: big.NewRat(c.k, 1)})
		}

		got := checkOK(t, s)
		want := bruteSolve(cons, nVars, 6)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v cons=%+v", iter, got, want, cons)
		}
		if got {
			sat++
			assign := make([]int64, nVars)
			for i, v := range vars {
				val := s.Value(v)
				if !val.IsInt() {
					t.Fatalf("iter %d: non-integral model value %v", iter, val)
				}
				assign[i] = val.Num().Int64()
			}
			if !satisfies(cons, assign) {
				t.Fatalf("iter %d: model %v violates constraints %+v", iter, assign, cons)
			}
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate distribution: sat=%d unsat=%d", sat, unsat)
	}
	t.Logf("sat=%d unsat=%d", sat, unsat)
}

// TestSimplexRationalRelaxation: the rational relaxation of every integer-
// feasible system is feasible (sanity of the branch-and-bound layering).
func TestSimplexRationalRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		nVars := 2 + rng.Intn(2)
		cons := randSystem(rng, nVars, 1+rng.Intn(4))

		build := func(isInt bool) *Solver {
			s := New()
			vars := make([]VarID, nVars)
			for i := range vars {
				vars[i] = s.NewVar(isInt)
				s.AddConstraint(Constraint{
					Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
					Op:    Ge, K: big.NewRat(-6, 1),
				})
				s.AddConstraint(Constraint{
					Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
					Op:    Le, K: big.NewRat(6, 1),
				})
			}
			for _, c := range cons {
				terms := make([]Monomial, 0, nVars)
				for j, co := range c.coeffs {
					if co != 0 {
						terms = append(terms, Monomial{Coeff: big.NewRat(co, 1), Var: vars[j]})
					}
				}
				s.AddConstraint(Constraint{Terms: terms, Op: c.op, K: big.NewRat(c.k, 1)})
			}
			return s
		}
		intSat := checkOK(t, build(true))
		ratSat := checkOK(t, build(false))
		if intSat && !ratSat {
			t.Fatalf("iter %d: integer-sat but rational-unsat: %+v", iter, cons)
		}
	}
}

// TestAssignmentInvariants guards the incremental assignment update and the
// memoised δ: after every satisfiable Check, each basic variable's value
// equals its row re-evaluated over the nonbasic values, and Value answers
// the same rational when asked twice, namely the one the current assignment
// and a freshly computed δ give.
func TestAssignmentInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for iter := 0; iter < 400; iter++ {
		nVars := 2 + rng.Intn(3)
		cons := randSystem(rng, nVars, 1+rng.Intn(6))
		s := New()
		vars := make([]VarID, nVars)
		isInt := rng.Intn(2) == 0
		for i := range vars {
			vars[i] = s.NewVar(isInt)
			s.AddConstraint(Constraint{
				Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
				Op:    Ge, K: big.NewRat(-6, 1),
			})
			s.AddConstraint(Constraint{
				Terms: []Monomial{{Coeff: big.NewRat(1, 1), Var: vars[i]}},
				Op:    Le, K: big.NewRat(6, 1),
			})
		}
		for _, c := range cons {
			var terms []Monomial
			for j, co := range c.coeffs {
				if co != 0 {
					terms = append(terms, Monomial{Coeff: big.NewRat(co, 1), Var: vars[j]})
				}
			}
			s.AddConstraint(Constraint{Terms: terms, Op: c.op, K: big.NewRat(c.k, 1)})
		}
		if !checkOK(t, s) {
			continue
		}
		checked++
		for bv, row := range s.rows {
			if got, want := s.beta[bv], s.rowValue(row); got.Cmp(want) != 0 {
				t.Fatalf("iter %d: basic var %d holds %v, its row evaluates to %v", iter, bv, got, want)
			}
		}
		delta := s.concreteDelta()
		if s.concDelta != nil && s.concDelta.Cmp(delta) != 0 {
			t.Fatalf("iter %d: memoised δ %v, the current assignment gives %v", iter, s.concDelta, delta)
		}
		for _, v := range vars {
			if a, b := s.Value(v), s.Value(v); a.Cmp(b) != 0 {
				t.Fatalf("iter %d: Value(%d) gave %v then %v", iter, v, a, b)
			}
			q := s.beta[v]
			want := new(big.Rat).Mul(q.D, delta)
			want.Add(want, q.R)
			if got := s.Value(v); got.Cmp(want) != 0 {
				t.Fatalf("iter %d: Value(%d) = %v, want %v for the current assignment", iter, v, got, want)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d satisfiable systems", checked)
	}
}
