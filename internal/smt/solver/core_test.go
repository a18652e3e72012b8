package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"scooter/internal/smt/term"
)

// deletionCore is the reference core minimiser: a front-to-back deletion
// filter that drops each literal whose removal keeps the set infeasible.
// minimizeCore must return exactly its core, in the same order.
func deletionCore(t testing.TB, s *Solver, lits []tlit) []tlit {
	cur := append([]tlit(nil), lits...)
	for i := 0; i < len(cur); {
		trial := make([]tlit, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		if feasible(t, s, trial) {
			i++
		} else {
			cur = trial
		}
	}
	return cur
}

// feasible runs the combined theory check on lits.
func feasible(t testing.TB, s *Solver, lits []tlit) bool {
	t.Helper()
	tc, err := s.runTheories(lits)
	if err != nil {
		t.Fatalf("theory check: %v", err)
	}
	return tc.ok
}

// theorySolver returns a solver ready for direct runTheories calls.
func theorySolver(b *term.Builder) *Solver {
	s := New(b)
	s.trueConst = b.Const("$true", term.Uninterp(boolTrueSortName))
	return s
}

func litsString(b *term.Builder, lits []tlit) string {
	out := ""
	for _, l := range lits {
		if l.val {
			out += b.String(l.atom) + " "
		} else {
			out += "¬" + b.String(l.atom) + " "
		}
	}
	return out
}

// TestMinimizeCoreMatchesDeletion generates random infeasible literal sets
// over the property harness's vocabulary and checks that minimizeCore
// returns the deletion filter's core in the same order, and that the core
// is minimal: infeasible, and feasible once any one literal is dropped.
func TestMinimizeCoreMatchesDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	found := 0
	for iter := 0; found < 2000; iter++ {
		if iter > 100000 {
			t.Fatalf("only %d infeasible sets in %d draws", found, iter)
		}
		v := newVocab()
		s := theorySolver(v.b)
		n := 2 + rng.Intn(9)
		lits := make([]tlit, 0, n)
		for len(lits) < n {
			a := v.randAtom(rng)
			if !s.isTheoryAtom(a) {
				continue // folded to true/false
			}
			lits = append(lits, tlit{atom: a, val: rng.Intn(2) == 0})
		}
		if feasible(t, s, lits) {
			continue
		}
		found++
		want := deletionCore(t, s, lits)
		got, err := s.minimizeCore(lits)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("set %s: core %s, deletion gives %s",
				litsString(v.b, lits), litsString(v.b, got), litsString(v.b, want))
		}
		if feasible(t, s, got) {
			t.Fatalf("core %s is feasible", litsString(v.b, got))
		}
		for i := range got {
			rest := append(append([]tlit(nil), got[:i]...), got[i+1:]...)
			if !feasible(t, s, rest) {
				t.Fatalf("core %s is not minimal: %s is infeasible",
					litsString(v.b, got), litsString(v.b, rest))
			}
		}
	}
}

// TestMinimizeCoreCheckCount places a 2-literal contradiction among 30
// satisfiable, independent bound literals at every pair of positions. A
// deletion filter makes one theory check per literal (32); minimizeCore
// must make at most 18.
func TestMinimizeCoreCheckCount(t *testing.T) {
	b := term.NewBuilder()
	s := theorySolver(b)
	var filler []tlit
	for i := 0; i < 30; i++ {
		x := b.Const(fmt.Sprintf("x%d", i), term.Int)
		filler = append(filler, tlit{atom: b.Le(x, b.IntLit(int64(i))), val: true})
	}
	n := b.Const("n", term.Int)
	lo := tlit{atom: b.Le(n, b.IntLit(0)), val: false} // n > 0
	hi := tlit{atom: b.Le(n, b.IntLit(-1)), val: true} // n <= -1
	maxChecks := 0
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			lits := make([]tlit, 0, 32)
			rest := filler
			for p := 0; p < 32; p++ {
				switch p {
				case i:
					lits = append(lits, lo)
				case j:
					lits = append(lits, hi)
				default:
					lits = append(lits, rest[0])
					rest = rest[1:]
				}
			}
			s.TheoryChecks = 0
			core, err := s.minimizeCore(lits)
			if err != nil {
				t.Fatal(err)
			}
			if len(core) != 2 || core[0] != lo || core[1] != hi {
				t.Fatalf("positions %d,%d: core %s", i, j, litsString(b, core))
			}
			maxChecks = max(maxChecks, s.TheoryChecks)
		}
	}
	if maxChecks > 18 {
		t.Fatalf("minimizeCore made up to %d theory checks for a 2-literal core among 32 literals, want <= 18", maxChecks)
	}
	t.Logf("at most %d theory checks", maxChecks)
}

// conflictHeavy builds a pigeonhole problem over EUF and linear
// arithmetic: pigeons+1 distinct instances a_i of sort U, each holding a
// value f(a_i) in {0..pigeons-1} (a disjunction of integer equalities), and
// an injective f. It is unsatisfiable, and the SAT core learns that only
// from theory conflicts, each over every assigned theory atom.
func conflictHeavy(pigeons int) (*term.Builder, []term.T) {
	b := term.NewBuilder()
	u := term.Uninterp("U")
	var as, fs []term.T
	for i := 0; i <= pigeons; i++ {
		a := b.Const(fmt.Sprintf("a%d", i), u)
		as = append(as, a)
		fs = append(fs, b.App("f", term.Int, a))
	}
	var out []term.T
	for i := range as {
		var holes []term.T
		for h := 0; h < pigeons; h++ {
			holes = append(holes, b.Eq(fs[i], b.IntLit(int64(h))))
		}
		out = append(out, b.Or(holes...))
		for j := i + 1; j < len(as); j++ {
			out = append(out, b.Not(b.Eq(as[i], as[j])))
			out = append(out, b.Implies(b.Eq(fs[i], fs[j]), b.Eq(as[i], as[j])))
		}
	}
	return b, out
}

// BenchmarkConflictHeavy measures the CDCL(T) loop on a query whose cost is
// dominated by theory conflicts and their core minimisation.
func BenchmarkConflictHeavy(bm *testing.B) {
	var checks, conflicts int64
	for i := 0; i < bm.N; i++ {
		b, fs := conflictHeavy(3)
		s := New(b)
		for _, f := range fs {
			s.Assert(f)
		}
		if st, err := s.Check(); err != nil || st != Unsat {
			bm.Fatalf("pigeonhole: %v %v, want unsat", st, err)
		}
		c, _, _ := s.SATStats()
		checks += int64(s.TheoryChecks)
		conflicts += c
	}
	bm.ReportMetric(float64(checks)/float64(bm.N), "checks/op")
	bm.ReportMetric(float64(conflicts)/float64(bm.N), "conflicts/op")
}
