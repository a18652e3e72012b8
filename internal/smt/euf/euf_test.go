package euf

import (
	"testing"

	"scooter/internal/smt/term"
)

func setup() (*term.Builder, term.Sort) {
	b := term.NewBuilder()
	return b, term.Uninterp("U")
}

func eq(a, b term.T) Assertion  { return Assertion{A: a, B: b, Equal: true} }
func neq(a, b term.T) Assertion { return Assertion{A: a, B: b, Equal: false} }

func TestTransitivity(t *testing.T) {
	b, u := setup()
	x, y, z := b.Const("x", u), b.Const("y", u), b.Const("z", u)
	r := Check(b, []Assertion{eq(x, y), eq(y, z), neq(x, z)})
	if r.Sat {
		t.Fatal("x=y, y=z, x!=z must be unsat")
	}
	r = Check(b, []Assertion{eq(x, y), eq(y, z)})
	if !r.Sat {
		t.Fatal("x=y, y=z is sat")
	}
	if r.Classes[x] != r.Classes[z] {
		t.Error("x and z should share a class")
	}
}

func TestCongruenceUnary(t *testing.T) {
	b, u := setup()
	x, y := b.Const("x", u), b.Const("y", u)
	fx, fy := b.App("f", u, x), b.App("f", u, y)
	if Check(b, []Assertion{eq(x, y), neq(fx, fy)}).Sat {
		t.Fatal("x=y implies f(x)=f(y)")
	}
	if !Check(b, []Assertion{neq(x, y), eq(fx, fy)}).Sat {
		t.Fatal("f(x)=f(y) with x!=y is sat")
	}
}

func TestCongruenceNested(t *testing.T) {
	b, u := setup()
	x, y := b.Const("x", u), b.Const("y", u)
	fx := b.App("f", u, x)
	ffx := b.App("f", u, fx)
	fffx := b.App("f", u, ffx)
	// Classic: f(f(f(x))) = x and f(f(f(f(f(x))))) = x imply f(x) = x.
	ffffx := b.App("f", u, fffx)
	fffffx := b.App("f", u, ffffx)
	r := Check(b, []Assertion{eq(fffx, x), eq(fffffx, x), neq(fx, x)})
	if r.Sat {
		t.Fatal("f^3(x)=x and f^5(x)=x imply f(x)=x")
	}
	_ = y
}

func TestCongruenceBinary(t *testing.T) {
	b, u := setup()
	x, y, z, w := b.Const("x", u), b.Const("y", u), b.Const("z", u), b.Const("w", u)
	gxy := b.App("g", u, x, y)
	gzw := b.App("g", u, z, w)
	if Check(b, []Assertion{eq(x, z), eq(y, w), neq(gxy, gzw)}).Sat {
		t.Fatal("congruence over two arguments")
	}
	if !Check(b, []Assertion{eq(x, z), neq(gxy, gzw)}).Sat {
		t.Fatal("only one argument pair equal: sat")
	}
}

func TestDifferentFunctionsDontMerge(t *testing.T) {
	b, u := setup()
	x := b.Const("x", u)
	fx, gx := b.App("f", u, x), b.App("g", u, x)
	if !Check(b, []Assertion{neq(fx, gx)}).Sat {
		t.Fatal("f(x) != g(x) is sat")
	}
}

func TestSelfDisequality(t *testing.T) {
	b, u := setup()
	x := b.Const("x", u)
	if Check(b, []Assertion{neq(x, x)}).Sat {
		t.Fatal("x != x is unsat")
	}
}

func TestConflictIndexes(t *testing.T) {
	b, u := setup()
	x, y, z := b.Const("x", u), b.Const("y", u), b.Const("z", u)
	as := []Assertion{eq(x, y), neq(x, z), eq(y, z)}
	r := Check(b, as)
	if r.Sat {
		t.Fatal("unsat expected")
	}
	if len(r.Conflict) == 0 {
		t.Fatal("conflict must be reported")
	}
	for _, i := range r.Conflict {
		if i < 0 || i >= len(as) {
			t.Fatalf("conflict index %d out of range", i)
		}
	}
}

func TestChainOfFunctions(t *testing.T) {
	b, u := setup()
	// a chain a0=a1=...=an with f applied; deep congruence.
	n := 30
	vars := make([]term.T, n)
	for i := range vars {
		vars[i] = b.Const("a"+string(rune('0'+i%10))+"_"+string(rune('a'+i/10)), u)
	}
	var as []Assertion
	for i := 0; i+1 < n; i++ {
		as = append(as, eq(vars[i], vars[i+1]))
	}
	f0 := b.App("f", u, vars[0])
	fn := b.App("f", u, vars[n-1])
	as = append(as, neq(f0, fn))
	if Check(b, as).Sat {
		t.Fatal("chain congruence should be unsat")
	}
}

func TestMixedSatModel(t *testing.T) {
	b, u := setup()
	x, y, z := b.Const("x", u), b.Const("y", u), b.Const("z", u)
	fx := b.App("f", u, x)
	r := Check(b, []Assertion{eq(fx, y), neq(y, z), neq(x, z)})
	if !r.Sat {
		t.Fatal("sat expected")
	}
	if r.Classes[fx] != r.Classes[y] {
		t.Error("f(x) and y must share a class")
	}
	if r.Classes[y] == r.Classes[z] {
		t.Error("y and z must be distinct")
	}
}

// TestSigKeyUnambiguous: a function name containing the key's separators
// must not pose as another name applied to arguments.
func TestSigKeyUnambiguous(t *testing.T) {
	cases := []struct {
		name string
		args []term.T
	}{
		{"a/1,5", nil},
		{"a", []term.T{5}},
		{"a/1", []term.T{5}},
		{"f", []term.T{1, 2}},
		{"f", []term.T{12}},
		{"f:1", nil},
		{"1:f", nil},
	}
	seen := map[string]int{}
	for i, c := range cases {
		k := SigKey(c.name, c.args)
		if j, ok := seen[k]; ok {
			t.Fatalf("SigKey(%q, %v) equals SigKey(%q, %v)", c.name, c.args, cases[j].name, cases[j].args)
		}
		seen[k] = i
	}
}
