package ast

import (
	"fmt"
	"strings"

	"scooter/internal/token"
)

// Expr is a Scooter value expression (Figure 3 of the paper). Expressions
// are shared between policy functions and migration initialisers.
type Expr interface {
	exprNode()
	// Pos returns the source position of the expression.
	Pos() token.Pos
	// Type returns the type assigned by the checker (zero until checked).
	Type() Type
	// SetType records the checked type.
	SetType(Type)
	fmt.Stringer
}

type exprBase struct {
	pos token.Pos
	typ Type
}

func (b *exprBase) exprNode()      {}
func (b *exprBase) Pos() token.Pos { return b.pos }
func (b *exprBase) Type() Type     { return b.typ }
func (b *exprBase) SetType(t Type) { b.typ = t }

// Base returns an exprBase at pos, for constructing nodes.
func base(pos token.Pos) exprBase { return exprBase{pos: pos} }

// ---- Constants ----

// StringLit is a string constant.
type StringLit struct {
	exprBase
	Value string
}

// IntLit is an integer constant.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a float constant.
type FloatLit struct {
	exprBase
	Value float64
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Value bool
}

// DateTimeLit is a datetime constant, stored as a UNIX timestamp.
type DateTimeLit struct {
	exprBase
	Unix int64
	Raw  string // original literal text, for printing
}

// Now is the `now` datetime constructor. Sidecar models it as a single
// unconstrained value shared by both policies under comparison.
type Now struct {
	exprBase
}

// Public is the `public` constant: the set of all principals.
type Public struct {
	exprBase
}

// ---- Variables, sets, operators ----

// Var is a variable reference.
type Var struct {
	exprBase
	Name string
}

// SetLit is a set literal [e0, ..., en].
type SetLit struct {
	exprBase
	Elems []Expr
}

// BinOp is the binary operator kind.
type BinOp int

// Binary operators. Add/Sub apply to numbers and sets (set union and
// subtraction); the comparisons apply per Figure 3.
const (
	OpAdd BinOp = iota // +
	OpSub              // -
	OpLt               // <
	OpLe               // <=
	OpGt               // >
	OpGe               // >=
	OpEq               // ==
	OpNe               // !=
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Binary is e1 op e2.
type Binary struct {
	exprBase
	Op    BinOp
	Left  Expr
	Right Expr
}

// ---- Control flow ----

// If is `if cond then then else els`.
type If struct {
	exprBase
	Cond Expr
	Then Expr
	Else Expr
}

// Match is `match e as v in some else none`: if e is Some(x), evaluate the
// Some branch with v bound to x, otherwise the else branch.
type Match struct {
	exprBase
	Scrutinee Expr
	Binder    string
	SomeArm   Expr
	NoneArm   Expr
}

// NoneLit is the Option constructor None.
type NoneLit struct {
	exprBase
	// ElemType is inferred by the checker from context.
	ElemType Type
}

// SomeLit is the Option constructor Some(e).
type SomeLit struct {
	exprBase
	Arg Expr
}

// ---- Collections and model access ----

// FuncLit is an anonymous function var -> body (Figure 3 `func`).
type FuncLit struct {
	exprBase
	Param     string // "_" for ignored parameter
	ParamType Type   // filled by the checker
	Body      Expr
}

// Map is e.map(f).
type Map struct {
	exprBase
	Recv Expr
	Fn   *FuncLit
}

// FlatMap is e.flat_map(f).
type FlatMap struct {
	exprBase
	Recv Expr
	Fn   *FuncLit
}

// FieldAccess is e.field.
type FieldAccess struct {
	exprBase
	Recv  Expr
	Field string
}

// ById is Model::ById(e), resolving an id to an instance.
type ById struct {
	exprBase
	Model string
	Arg   Expr
}

// FindOp is a Find clause operator (Figure 3 `fop`).
type FindOp int

// Find operators: `:` equality; `>` set-containment (on set fields);
// numeric comparisons.
const (
	FindEq       FindOp = iota // field: value
	FindContains               // field > value  (set field contains value)
	FindLt
	FindLe
	FindGt
	FindGe
)

func (op FindOp) String() string {
	switch op {
	case FindEq:
		return ":"
	case FindContains:
		return ">"
	case FindLt:
		return "<"
	case FindLe:
		return "<="
	case FindGt:
		return ">"
	case FindGe:
		return ">="
	}
	return fmt.Sprintf("FindOp(%d)", int(op))
}

// FindClause is one `field fop value` criterion.
type FindClause struct {
	Field string
	Op    FindOp
	Value Expr
	Pos   token.Pos
}

// Find is Model::Find({f1 op1 e1, ..., fn opn en}), the set of instances
// matching every clause.
type Find struct {
	exprBase
	Model   string
	Clauses []FindClause
}

// ---- Printing ----

func (e *StringLit) String() string   { return fmt.Sprintf("%q", e.Value) }
func (e *IntLit) String() string      { return fmt.Sprintf("%d", e.Value) }
func (e *FloatLit) String() string    { return trimFloat(e.Value) }
func (e *BoolLit) String() string     { return fmt.Sprintf("%t", e.Value) }
func (e *DateTimeLit) String() string { return e.Raw }
func (e *Now) String() string         { return "now" }
func (e *Public) String() string      { return "public" }
func (e *Var) String() string         { return e.Name }

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (e *SetLit) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

func (e *If) String() string {
	return fmt.Sprintf("(if %s then %s else %s)", e.Cond, e.Then, e.Else)
}

func (e *Match) String() string {
	return fmt.Sprintf("(match %s as %s in %s else %s)", e.Scrutinee, e.Binder, e.SomeArm, e.NoneArm)
}

func (e *NoneLit) String() string { return "None" }
func (e *SomeLit) String() string { return fmt.Sprintf("Some(%s)", e.Arg) }

func (e *FuncLit) String() string {
	return fmt.Sprintf("%s -> %s", e.Param, e.Body)
}

func (e *Map) String() string {
	return fmt.Sprintf("%s.map(%s)", e.Recv, e.Fn)
}

func (e *FlatMap) String() string {
	return fmt.Sprintf("%s.flat_map(%s)", e.Recv, e.Fn)
}

func (e *FieldAccess) String() string {
	return fmt.Sprintf("%s.%s", e.Recv, e.Field)
}

func (e *ById) String() string {
	return fmt.Sprintf("%s::ById(%s)", e.Model, e.Arg)
}

func (e *Find) String() string {
	parts := make([]string, len(e.Clauses))
	for i, c := range e.Clauses {
		if c.Op == FindEq {
			parts[i] = fmt.Sprintf("%s: %s", c.Field, c.Value)
		} else {
			parts[i] = fmt.Sprintf("%s %s %s", c.Field, c.Op, c.Value)
		}
	}
	return fmt.Sprintf("%s::Find({%s})", e.Model, strings.Join(parts, ", "))
}

// ---- Constructors used by the parser ----

// NewStringLit returns a string literal node.
func NewStringLit(pos token.Pos, v string) *StringLit { return &StringLit{base(pos), v} }

// NewIntLit returns an integer literal node.
func NewIntLit(pos token.Pos, v int64) *IntLit { return &IntLit{base(pos), v} }

// NewFloatLit returns a float literal node.
func NewFloatLit(pos token.Pos, v float64) *FloatLit { return &FloatLit{base(pos), v} }

// NewBoolLit returns a boolean literal node.
func NewBoolLit(pos token.Pos, v bool) *BoolLit { return &BoolLit{base(pos), v} }

// NewDateTimeLit returns a datetime literal node.
func NewDateTimeLit(pos token.Pos, unix int64, raw string) *DateTimeLit {
	return &DateTimeLit{base(pos), unix, raw}
}

// NewNow returns a `now` node.
func NewNow(pos token.Pos) *Now { return &Now{base(pos)} }

// NewPublic returns a `public` node.
func NewPublic(pos token.Pos) *Public { return &Public{base(pos)} }

// NewVar returns a variable reference node.
func NewVar(pos token.Pos, name string) *Var { return &Var{base(pos), name} }

// NewSetLit returns a set literal node.
func NewSetLit(pos token.Pos, elems []Expr) *SetLit { return &SetLit{base(pos), elems} }

// NewBinary returns a binary operation node.
func NewBinary(pos token.Pos, op BinOp, l, r Expr) *Binary { return &Binary{base(pos), op, l, r} }

// NewIf returns an if expression node.
func NewIf(pos token.Pos, c, t, e Expr) *If { return &If{base(pos), c, t, e} }

// NewMatch returns a match expression node.
func NewMatch(pos token.Pos, scrut Expr, binder string, someArm, noneArm Expr) *Match {
	return &Match{base(pos), scrut, binder, someArm, noneArm}
}

// NewNoneLit returns a None node.
func NewNoneLit(pos token.Pos) *NoneLit { return &NoneLit{exprBase: base(pos)} }

// NewSomeLit returns a Some(e) node.
func NewSomeLit(pos token.Pos, arg Expr) *SomeLit { return &SomeLit{base(pos), arg} }

// NewFuncLit returns an anonymous function node.
func NewFuncLit(pos token.Pos, param string, body Expr) *FuncLit {
	return &FuncLit{exprBase: base(pos), Param: param, Body: body}
}

// NewMap returns a map node.
func NewMap(pos token.Pos, recv Expr, fn *FuncLit) *Map { return &Map{base(pos), recv, fn} }

// NewFlatMap returns a flat_map node.
func NewFlatMap(pos token.Pos, recv Expr, fn *FuncLit) *FlatMap {
	return &FlatMap{base(pos), recv, fn}
}

// NewFieldAccess returns a field access node.
func NewFieldAccess(pos token.Pos, recv Expr, field string) *FieldAccess {
	return &FieldAccess{base(pos), recv, field}
}

// NewById returns a Model::ById(e) node.
func NewById(pos token.Pos, model string, arg Expr) *ById { return &ById{base(pos), model, arg} }

// NewFind returns a Model::Find({...}) node.
func NewFind(pos token.Pos, model string, clauses []FindClause) *Find {
	return &Find{base(pos), model, clauses}
}
