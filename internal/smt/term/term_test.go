package term

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	u := Uninterp("U")
	x1 := b.Const("x", u)
	x2 := b.Const("x", u)
	if x1 != x2 {
		t.Error("identical constants must intern to one term")
	}
	if b.Const("x", Int) == x1 {
		t.Error("same name, different sort must differ")
	}
	a1 := b.App("f", Int, x1)
	a2 := b.App("f", Int, x2)
	if a1 != a2 {
		t.Error("identical applications must intern to one term")
	}
}

func TestBooleanSimplification(t *testing.T) {
	b := NewBuilder()
	p := b.Const("p", Bool)
	q := b.Const("q", Bool)
	if b.Not(b.Not(p)) != p {
		t.Error("double negation")
	}
	if b.And() != b.True() || b.Or() != b.False() {
		t.Error("empty connectives")
	}
	if b.And(p) != p || b.Or(p) != p {
		t.Error("unary connectives")
	}
	if b.And(p, b.True()) != p {
		t.Error("true is the unit of and")
	}
	if b.And(p, b.False()) != b.False() {
		t.Error("false is the zero of and")
	}
	if b.Or(p, b.True()) != b.True() {
		t.Error("true is the zero of or")
	}
	if b.And(p, b.Not(p)) != b.False() {
		t.Error("contradiction folds to false")
	}
	if b.Or(p, b.Not(p)) != b.True() {
		t.Error("excluded middle folds to true")
	}
	if b.And(p, q) != b.And(q, p) {
		t.Error("canonical argument order")
	}
	if b.And(p, b.And(q, p)) != b.And(p, q) {
		t.Error("flattening + dedup")
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	if b.Eq(b.IntLit(2), b.IntLit(2)) != b.True() {
		t.Error("2 = 2")
	}
	if b.Eq(b.IntLit(2), b.IntLit(3)) != b.False() {
		t.Error("2 != 3")
	}
	if b.Le(b.IntLit(2), b.IntLit(3)) != b.True() {
		t.Error("2 <= 3")
	}
	if b.Lt(b.IntLit(3), b.IntLit(3)) != b.False() {
		t.Error("3 < 3")
	}
	r1 := b.RatLit(big.NewRat(1, 2))
	r2 := b.RatLit(big.NewRat(2, 4))
	if r1 != r2 {
		t.Error("rationals intern canonically")
	}
	if b.Eq(r1, r2) != b.True() {
		t.Error("1/2 = 2/4")
	}
}

func TestIteSimplification(t *testing.T) {
	b := NewBuilder()
	x := b.Const("x", Int)
	y := b.Const("y", Int)
	c := b.Const("c", Bool)
	if b.Ite(b.True(), x, y) != x || b.Ite(b.False(), x, y) != y {
		t.Error("constant conditions")
	}
	if b.Ite(c, x, x) != x {
		t.Error("equal branches")
	}
	ite := b.Ite(c, x, y)
	if b.Op(ite) != OpIte {
		t.Errorf("got %v", b.Op(ite))
	}
	// Boolean ite lowers to and/or structure.
	p, q := b.Const("p", Bool), b.Const("q", Bool)
	bi := b.Ite(c, p, q)
	if b.Op(bi) == OpIte {
		t.Error("boolean ite must lower to connectives")
	}
}

func TestEqBooleanBecomesIff(t *testing.T) {
	b := NewBuilder()
	p, q := b.Const("p", Bool), b.Const("q", Bool)
	eq := b.Eq(p, q)
	if b.Op(eq) == OpEq {
		t.Error("boolean equality must lower to iff structure")
	}
	if b.Eq(p, p) != b.True() {
		t.Error("p = p")
	}
}

func TestEqArgumentOrderCanonical(t *testing.T) {
	b := NewBuilder()
	x, y := b.Const("x", Int), b.Const("y", Int)
	if b.Eq(x, y) != b.Eq(y, x) {
		t.Error("equality must be order-insensitive")
	}
}

func TestDistinct(t *testing.T) {
	b := NewBuilder()
	u := Uninterp("U")
	x, y, z := b.Const("x", u), b.Const("y", u), b.Const("z", u)
	if b.Distinct(x) != b.True() {
		t.Error("distinct of one is true")
	}
	if b.Distinct(x, y, z) != b.Distinct(z, y, x) {
		t.Error("distinct is order-insensitive")
	}
}

// Property: And is idempotent, commutative, and associative at the
// representation level for arbitrary small argument sets.
func TestAndPropertes(t *testing.T) {
	b := NewBuilder()
	vars := []T{
		b.Const("a", Bool), b.Const("b", Bool), b.Const("c", Bool), b.Const("d", Bool),
	}
	pick := func(sel []bool) []T {
		var out []T
		for i, s := range sel {
			if i < len(vars) && s {
				out = append(out, vars[i])
			}
		}
		return out
	}
	f := func(sel1, sel2 []bool) bool {
		a, c := pick(sel1), pick(sel2)
		lhs := b.And(b.And(a...), b.And(c...))
		rhs := b.And(append(append([]T{}, a...), c...)...)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	x := b.Const("x", Int)
	f := b.App("f", Int, x)
	e := b.Le(b.Add(f, b.IntLit(1)), x)
	if got := b.String(e); got != "(<= (+ (f x) 1) x)" {
		t.Errorf("render: %s", got)
	}
}

// TestKeysAreUnambiguous: a name that contains another field's separator
// must not intern to the same term as a different node.
func TestKeysAreUnambiguous(t *testing.T) {
	b := NewBuilder()
	x := b.Const("b|c", Uninterp("a"))
	y := b.Const("c", Uninterp("a|b"))
	if x == y {
		t.Fatal(`Const("b|c", a) and Const("c", a|b) interned to one term`)
	}
	if got := b.SortOf(y); got != Uninterp("a|b") {
		t.Fatalf("Const(\"c\", a|b) has sort %v", got)
	}
	u := Uninterp("U")
	p, q := b.Const("p", u), b.Const("q", u)
	if b.App("f", Int, p, q) == b.App("f", Int, p) || b.App("f,1", Int, q) == b.App("f", Int, p, q) {
		t.Fatal("applications with different names or arguments interned to one term")
	}
	if b.RatLit(big.NewRat(1, 2)) != b.RatLit(big.NewRat(2, 4)) {
		t.Fatal("equal rationals must intern to one term")
	}
	if b.RatLit(big.NewRat(1, 2)) == b.RatLit(big.NewRat(1, 3)) {
		t.Fatal("different rationals interned to one term")
	}
}

// TestAppCopiesArgs: the builder must not keep the caller's argument slice.
func TestAppCopiesArgs(t *testing.T) {
	b := NewBuilder()
	u := Uninterp("U")
	x, y := b.Const("x", u), b.Const("y", u)
	args := []T{x}
	fx := b.App("f", Int, args...)
	args[0] = y
	if b.Args(fx)[0] != x {
		t.Fatal("App kept the caller's argument slice")
	}
	if b.App("f", Int, x) != fx {
		t.Fatal("f(x) no longer interns to the first f(x)")
	}
}
