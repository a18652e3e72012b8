package sat

import (
	"math/rand"
	"testing"
	"time"

	"scooter/internal/smt/limits"
)

func lit(i int) Lit {
	// Positive i => positive literal of var i-1; negative => negated.
	if i > 0 {
		return MkLit(Var(i-1), false)
	}
	return MkLit(Var(-i-1), true)
}

// addDimacs builds a solver from DIMACS-style clause lists.
func addDimacs(nVars int, clauses [][]int) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		lits := make([]Lit, len(c))
		for i, x := range c {
			lits[i] = lit(x)
		}
		s.AddClause(lits...)
	}
	return s
}

func TestTrivialSat(t *testing.T) {
	s := addDimacs(2, [][]int{{1, 2}, {-1, 2}})
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
	if !s.Value(1) { // x2 must be true... check model satisfies clauses instead
		// x2 may be false if x1 true? (-1,2): x1 true forces x2. Check properly:
		ok1 := s.Value(0) || s.Value(1)
		ok2 := !s.Value(0) || s.Value(1)
		if !ok1 || !ok2 {
			t.Fatal("model does not satisfy clauses")
		}
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := addDimacs(1, [][]int{{1}, {-1}})
	if s.Solve() != Unsat {
		t.Fatal("expected unsat")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should report false")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected unsat")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1, x1->x2, x2->x3, x3->x4: all true.
	s := addDimacs(4, [][]int{{1}, {-1, 2}, {-2, 3}, {-3, 4}})
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
	for v := Var(0); v < 4; v++ {
		if !s.Value(v) {
			t.Errorf("x%d should be true", v+1)
		}
	}
}

// pigeonhole encodes n+1 pigeons into n holes (unsatisfiable).
func pigeonhole(n int) *Solver {
	s := New()
	// var p(i,h): pigeon i in hole h.
	idx := func(i, h int) Var { return Var(i*n + h) }
	for i := 0; i < (n+1)*n; i++ {
		s.NewVar()
	}
	// Every pigeon in some hole.
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = MkLit(idx(i, h), false)
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for h := 0; h < n; h++ {
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				s.AddClause(MkLit(idx(i, h), true), MkLit(idx(j, h), true))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if pigeonhole(n).Solve() != Unsat {
			t.Errorf("PHP(%d) should be unsat", n)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (possible). Vars: v(i,c) for i in 0..4, c in 0..2.
	s := New()
	idx := func(i, c int) Var { return Var(i*3 + c) }
	for i := 0; i < 15; i++ {
		s.NewVar()
	}
	for i := 0; i < 5; i++ {
		s.AddClause(MkLit(idx(i, 0), false), MkLit(idx(i, 1), false), MkLit(idx(i, 2), false))
		for c1 := 0; c1 < 3; c1++ {
			for c2 := c1 + 1; c2 < 3; c2++ {
				s.AddClause(MkLit(idx(i, c1), true), MkLit(idx(i, c2), true))
			}
		}
	}
	for i := 0; i < 5; i++ {
		j := (i + 1) % 5
		for c := 0; c < 3; c++ {
			s.AddClause(MkLit(idx(i, c), true), MkLit(idx(j, c), true))
		}
	}
	if s.Solve() != Sat {
		t.Fatal("5-cycle is 3-colorable")
	}
	// Validate the model.
	for i := 0; i < 5; i++ {
		count := 0
		for c := 0; c < 3; c++ {
			if s.Value(idx(i, c)) {
				count++
			}
		}
		if count != 1 {
			t.Errorf("vertex %d has %d colors", i, count)
		}
		j := (i + 1) % 5
		for c := 0; c < 3; c++ {
			if s.Value(idx(i, c)) && s.Value(idx(j, c)) {
				t.Errorf("edge %d-%d monochromatic", i, j)
			}
		}
	}
}

func TestTwoColorOddCycleUnsat(t *testing.T) {
	// 2-coloring a triangle is unsat. Encode color as single boolean per vertex.
	s := addDimacs(3, [][]int{
		{1, 2}, {-1, -2}, // v0 != v1
		{2, 3}, {-2, -3}, // v1 != v2
		{3, 1}, {-3, -1}, // v2 != v0
	})
	if s.Solve() != Unsat {
		t.Fatal("triangle is not 2-colorable")
	}
}

// bruteForce checks satisfiability by enumeration (up to 20 vars).
func bruteForce(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range clauses {
			cok := false
			for _, x := range c {
				v := x
				if v < 0 {
					v = -v
				}
				val := m&(1<<uint(v-1)) != 0
				if (x > 0) == val {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 2 + rng.Intn(5*nVars)
		clauses := make([][]int, nClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]int, width)
			for j := range c {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses[i] = c
		}
		want := bruteForce(nVars, clauses)
		s := addDimacs(nVars, clauses)
		got := s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v clauses=%v", iter, got, want, clauses)
		}
		if got {
			// Verify the model.
			for _, c := range clauses {
				ok := false
				for _, x := range c {
					v := x
					if v < 0 {
						v = -v
					}
					if (x > 0) == s.Value(Var(v-1)) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %v", iter, c)
				}
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(1, int64(i)); got != w {
			t.Errorf("luby(1,%d) = %d, want %d", i, got, w)
		}
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pigeonhole(7).Solve() != Unsat {
			b.Fatal("unsat expected")
		}
	}
}

// TestReduceDBSoundness forces aggressive learnt-clause deletion and checks
// verdicts stay correct: reduction must never delete reasons or change
// satisfiability.
func TestReduceDBSoundness(t *testing.T) {
	// Unsat under heavy reduction.
	s := pigeonhole(6)
	s.maxLearnts = 20
	if s.Solve() != Unsat {
		t.Fatal("PHP(6) must stay unsat under clause deletion")
	}
	// Random instances vs brute force with tiny clause budgets.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		nVars := 5 + rng.Intn(8)
		nClauses := 10 + rng.Intn(6*nVars)
		clauses := make([][]int, nClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]int, width)
			for j := range c {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses[i] = c
		}
		solver := addDimacs(nVars, clauses)
		solver.maxLearnts = 5
		got := solver.Solve() == Sat
		want := bruteForce(nVars, clauses)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v", iter, got, want)
		}
	}
}

// TestConflictBudgetExhaustion: a hard instance under a tiny conflict
// budget yields Unknown with a conflict-budget reason — never a bogus
// verdict, never a hang.
func TestConflictBudgetExhaustion(t *testing.T) {
	s := pigeonhole(7)
	s.MaxConflicts = 10
	if st := s.Solve(); st != Unknown {
		t.Fatalf("PHP(7) under 10 conflicts: got %v, want Unknown", st)
	}
	ex := s.Exhaustion()
	if ex == nil || ex.Reason != limits.ConflictBudget {
		t.Fatalf("want conflict-budget exhaustion, got %v", ex)
	}
	// Lifting the budget on the same solver completes the proof: learnt
	// clauses from the budgeted attempt are retained, not corrupted.
	s.MaxConflicts = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7) with no budget: got %v, want Unsat", st)
	}
	if s.Exhaustion() != nil {
		t.Fatalf("definitive verdict must clear the exhaustion status")
	}
}

// TestDeadlineExhaustion: an already-expired deadline interrupts the
// search at its first conflict.
func TestDeadlineExhaustion(t *testing.T) {
	s := pigeonhole(7)
	s.Limits = limits.New(nil).WithDeadline(time.Now().Add(-time.Second))
	if st := s.Solve(); st != Unknown {
		t.Fatalf("expired deadline: got %v, want Unknown", st)
	}
	if ex := s.Exhaustion(); ex == nil || ex.Reason != limits.Deadline {
		t.Fatalf("want deadline exhaustion, got %v", ex)
	}
}

// TestEasyInstanceIgnoresDeadline: a formula decided by propagation alone
// never reaches the conflict-loop poll, so even an expired deadline does
// not block trivial verdicts.
func TestTrivialSatUnderBudget(t *testing.T) {
	s := addDimacs(2, [][]int{{1}, {2}})
	s.MaxConflicts = 1
	if st := s.Solve(); st != Sat {
		t.Fatalf("trivial instance under budget: got %v, want Sat", st)
	}
}
