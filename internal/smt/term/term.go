// Package term defines the sorted, hash-consed term language shared by the
// SMT solver's theory engines. Terms form a DAG: structurally identical
// terms are created once and identified by their index.
package term

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// SortKind discriminates sorts.
type SortKind int

// The solver's sorts: booleans, mathematical integers, reals, and named
// uninterpreted sorts (one per Scooter model, plus String).
const (
	SortBool SortKind = iota
	SortInt
	SortReal
	SortUninterp
)

// Sort is a solver sort. Name is set for uninterpreted sorts.
type Sort struct {
	Kind SortKind
	Name string
}

// Convenience sorts.
var (
	Bool = Sort{Kind: SortBool}
	Int  = Sort{Kind: SortInt}
	Real = Sort{Kind: SortReal}
)

// Uninterp returns the named uninterpreted sort.
func Uninterp(name string) Sort { return Sort{Kind: SortUninterp, Name: name} }

func (s Sort) String() string {
	switch s.Kind {
	case SortBool:
		return "Bool"
	case SortInt:
		return "Int"
	case SortReal:
		return "Real"
	default:
		return s.Name
	}
}

// Op is a term constructor.
type Op int

// Term constructors. OpConst covers free constants (solver variables);
// OpApp covers uninterpreted function application.
const (
	OpTrue Op = iota
	OpFalse
	OpNot
	OpAnd
	OpOr
	OpEq       // polymorphic equality (2 args, same sort)
	OpLe       // arithmetic <=
	OpLt       // arithmetic <
	OpAdd      // n-ary arithmetic sum
	OpSub      // binary arithmetic difference
	OpMul      // scalar multiple: args[0] must be a literal
	OpIte      // if-then-else over any sort (args: cond, then, else)
	OpIntLit   // integer literal (Val)
	OpRatLit   // rational literal (Rat)
	OpConst    // free constant (Name, Sort)
	OpApp      // uninterpreted function application (Name, Sort, Args)
	OpDistinct // pairwise distinct (n args, same sort)
)

func (o Op) String() string {
	switch o {
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpEq:
		return "="
	case OpLe:
		return "<="
	case OpLt:
		return "<"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpIte:
		return "ite"
	case OpIntLit:
		return "int"
	case OpRatLit:
		return "rat"
	case OpConst:
		return "const"
	case OpApp:
		return "app"
	case OpDistinct:
		return "distinct"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// T identifies a term within its Builder.
type T int32

// NilTerm is an invalid term id.
const NilTerm T = -1

type node struct {
	op   Op
	sort Sort
	name string
	val  int64
	rat  *big.Rat
	args []T
}

// Builder creates and interns terms.
type Builder struct {
	nodes  []node
	index  map[string]T
	keyBuf []byte // scratch for intern's key

	t, f T // cached true/false
}

// NewBuilder returns an empty builder with interned true/false.
func NewBuilder() *Builder {
	b := &Builder{index: map[string]T{}}
	b.t = b.intern(node{op: OpTrue, sort: Bool})
	b.f = b.intern(node{op: OpFalse, sort: Bool})
	return b
}

// NumTerms returns the number of distinct terms created.
func (b *Builder) NumTerms() int { return len(b.nodes) }

// appendKey appends the hash-consing key of n applied to args to dst.
// Every field is self-delimiting (varints, length-prefixed strings) except
// the rational's text, which runs to the end of the key, so distinct nodes
// never share a key whatever their names contain.
func appendKey(dst []byte, n node, args []T) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.op))
	dst = binary.AppendUvarint(dst, uint64(n.sort.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(n.sort.Name)))
	dst = append(dst, n.sort.Name...)
	dst = binary.AppendUvarint(dst, uint64(len(n.name)))
	dst = append(dst, n.name...)
	dst = binary.AppendVarint(dst, n.val)
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	for _, a := range args {
		dst = binary.AppendVarint(dst, int64(a))
	}
	if n.rat != nil {
		dst = n.rat.Num().Append(dst, 10)
		dst = append(dst, '/')
		dst = n.rat.Denom().Append(dst, 10)
	}
	return dst
}

// intern returns the id of the term n applied to args, creating it on first
// use. The key is built in a reused buffer and args is copied only when the
// term is new, so a lookup that hits allocates nothing.
func (b *Builder) intern(n node, args ...T) T {
	b.keyBuf = appendKey(b.keyBuf[:0], n, args)
	if id, ok := b.index[string(b.keyBuf)]; ok {
		return id
	}
	id := T(len(b.nodes))
	n.args = append([]T(nil), args...)
	b.nodes = append(b.nodes, n)
	b.index[string(b.keyBuf)] = id
	return id
}

// ---- accessors ----

// Op returns the term's constructor.
func (b *Builder) Op(t T) Op { return b.nodes[t].op }

// SortOf returns the term's sort.
func (b *Builder) SortOf(t T) Sort { return b.nodes[t].sort }

// Args returns the term's arguments (do not modify).
func (b *Builder) Args(t T) []T { return b.nodes[t].args }

// Name returns the term's name (for OpConst and OpApp).
func (b *Builder) Name(t T) string { return b.nodes[t].name }

// IntVal returns the value of an OpIntLit term.
func (b *Builder) IntVal(t T) int64 { return b.nodes[t].val }

// RatVal returns the value of an OpIntLit or OpRatLit term as a rational.
func (b *Builder) RatVal(t T) *big.Rat {
	n := b.nodes[t]
	if n.op == OpIntLit {
		return new(big.Rat).SetInt64(n.val)
	}
	return n.rat
}

// IsLiteralValue reports whether t is a numeric literal.
func (b *Builder) IsLiteralValue(t T) bool {
	op := b.nodes[t].op
	return op == OpIntLit || op == OpRatLit
}

// ---- constructors ----

// True returns the true constant.
func (b *Builder) True() T { return b.t }

// False returns the false constant.
func (b *Builder) False() T { return b.f }

// BoolLit returns true or false.
func (b *Builder) BoolLit(v bool) T {
	if v {
		return b.t
	}
	return b.f
}

// IntLit returns an integer literal.
func (b *Builder) IntLit(v int64) T {
	return b.intern(node{op: OpIntLit, sort: Int, val: v})
}

// RatLit returns a rational (Real) literal.
func (b *Builder) RatLit(v *big.Rat) T {
	return b.intern(node{op: OpRatLit, sort: Real, rat: new(big.Rat).Set(v)})
}

// FloatLit returns a Real literal from a float64.
func (b *Builder) FloatLit(v float64) T {
	r := new(big.Rat)
	r.SetFloat64(v)
	return b.RatLit(r)
}

// Const returns the named free constant of the given sort.
func (b *Builder) Const(name string, sort Sort) T {
	return b.intern(node{op: OpConst, sort: sort, name: name})
}

// App returns the application fn(args...) with the given result sort.
func (b *Builder) App(fn string, result Sort, args ...T) T {
	return b.intern(node{op: OpApp, sort: result, name: fn}, args...)
}

// Not returns the negation of t, simplifying double negation and constants.
func (b *Builder) Not(t T) T {
	switch b.nodes[t].op {
	case OpTrue:
		return b.f
	case OpFalse:
		return b.t
	case OpNot:
		return b.nodes[t].args[0]
	}
	return b.intern(node{op: OpNot, sort: Bool}, t)
}

// And returns the conjunction, flattening nested conjunctions, removing
// duplicates and true, and short-circuiting false.
func (b *Builder) And(ts ...T) T {
	return b.nary(OpAnd, ts)
}

// Or returns the disjunction with the dual simplifications of And.
func (b *Builder) Or(ts ...T) T {
	return b.nary(OpOr, ts)
}

func (b *Builder) nary(op Op, ts []T) T {
	unit, zero := b.t, b.f
	if op == OpOr {
		unit, zero = b.f, b.t
	}
	var flat []T
	seen := map[T]bool{}
	var add func(t T)
	add = func(t T) {
		if b.nodes[t].op == op {
			for _, a := range b.nodes[t].args {
				add(a)
			}
			return
		}
		if t == unit || seen[t] {
			return
		}
		seen[t] = true
		flat = append(flat, t)
	}
	for _, t := range ts {
		add(t)
	}
	for _, t := range flat {
		if t == zero {
			return zero
		}
		// x and not x.
		if b.nodes[t].op == OpNot && seen[b.nodes[t].args[0]] {
			return zero
		}
	}
	switch len(flat) {
	case 0:
		return unit
	case 1:
		return flat[0]
	}
	// Sort args for canonical form.
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	return b.intern(node{op: op, sort: Bool}, flat...)
}

// Implies returns (not a) or b.
func (b *Builder) Implies(a, c T) T { return b.Or(b.Not(a), c) }

// Iff returns a <-> c as a conjunction of implications.
func (b *Builder) Iff(a, c T) T {
	return b.And(b.Implies(a, c), b.Implies(c, a))
}

// Eq returns a = c, normalising argument order and folding literals.
func (b *Builder) Eq(a, c T) T {
	if a == c {
		return b.t
	}
	na, nc := b.nodes[a], b.nodes[c]
	if na.op == OpIntLit && nc.op == OpIntLit {
		return b.BoolLit(na.val == nc.val)
	}
	if na.op == OpRatLit && nc.op == OpRatLit {
		return b.BoolLit(na.rat.Cmp(nc.rat) == 0)
	}
	// Boolean equality turns into iff so Tseitin handles it without a
	// dedicated theory.
	if na.sort.Kind == SortBool {
		return b.Iff(a, c)
	}
	if a > c {
		a, c = c, a
	}
	return b.intern(node{op: OpEq, sort: Bool}, a, c)
}

// Le returns a <= c over Int or Real terms.
func (b *Builder) Le(a, c T) T {
	na, nc := b.nodes[a], b.nodes[c]
	if na.op == OpIntLit && nc.op == OpIntLit {
		return b.BoolLit(na.val <= nc.val)
	}
	if na.op == OpRatLit && nc.op == OpRatLit {
		return b.BoolLit(na.rat.Cmp(nc.rat) <= 0)
	}
	return b.intern(node{op: OpLe, sort: Bool}, a, c)
}

// Lt returns a < c over Int or Real terms.
func (b *Builder) Lt(a, c T) T {
	na, nc := b.nodes[a], b.nodes[c]
	if na.op == OpIntLit && nc.op == OpIntLit {
		return b.BoolLit(na.val < nc.val)
	}
	if na.op == OpRatLit && nc.op == OpRatLit {
		return b.BoolLit(na.rat.Cmp(nc.rat) < 0)
	}
	return b.intern(node{op: OpLt, sort: Bool}, a, c)
}

// Ge returns a >= c.
func (b *Builder) Ge(a, c T) T { return b.Le(c, a) }

// Gt returns a > c.
func (b *Builder) Gt(a, c T) T { return b.Lt(c, a) }

// Add returns the sum of ts (which must share an arithmetic sort).
func (b *Builder) Add(ts ...T) T {
	if len(ts) == 0 {
		return b.IntLit(0)
	}
	if len(ts) == 1 {
		return ts[0]
	}
	return b.intern(node{op: OpAdd, sort: b.nodes[ts[0]].sort}, ts...)
}

// Sub returns a - c.
func (b *Builder) Sub(a, c T) T {
	return b.intern(node{op: OpSub, sort: b.nodes[a].sort}, a, c)
}

// MulConst returns k * t for a literal coefficient k. A non-literal
// coefficient means the caller lowered a non-linear multiplication, which
// the solver's theory cannot decide; it is reported as a diagnostic error
// rather than a crash so malformed policies surface cleanly.
func (b *Builder) MulConst(k T, t T) (T, error) {
	if !b.IsLiteralValue(k) {
		return NilTerm, fmt.Errorf("term: non-linear multiplication: coefficient %s is not a literal", b.String(k))
	}
	return b.intern(node{op: OpMul, sort: b.nodes[t].sort}, k, t), nil
}

// Ite returns if cond then a else c. The branches must share a sort.
func (b *Builder) Ite(cond, a, c T) T {
	switch b.nodes[cond].op {
	case OpTrue:
		return a
	case OpFalse:
		return c
	}
	if a == c {
		return a
	}
	if b.nodes[a].sort.Kind == SortBool {
		// Boolean ite: (cond -> a) and (!cond -> c).
		return b.And(b.Implies(cond, a), b.Implies(b.Not(cond), c))
	}
	return b.intern(node{op: OpIte, sort: b.nodes[a].sort}, cond, a, c)
}

// Distinct asserts pairwise distinctness of ts.
func (b *Builder) Distinct(ts ...T) T {
	if len(ts) < 2 {
		return b.t
	}
	sorted := append([]T(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return b.intern(node{op: OpDistinct, sort: Bool}, sorted...)
}

// String renders the term in SMT-LIB-like prefix syntax.
func (b *Builder) String(t T) string {
	n := b.nodes[t]
	switch n.op {
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	case OpIntLit:
		return fmt.Sprintf("%d", n.val)
	case OpRatLit:
		return n.rat.RatString()
	case OpConst:
		return n.name
	case OpApp:
		parts := make([]string, len(n.args))
		for i, a := range n.args {
			parts[i] = b.String(a)
		}
		return fmt.Sprintf("(%s %s)", n.name, strings.Join(parts, " "))
	default:
		parts := make([]string, len(n.args))
		for i, a := range n.args {
			parts[i] = b.String(a)
		}
		return fmt.Sprintf("(%s %s)", n.op, strings.Join(parts, " "))
	}
}
