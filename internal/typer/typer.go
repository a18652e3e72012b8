// Package typer implements the Scooter type checker. Policy functions are
// strongly typed (paper §3.1): a policy on model m must have type
// m -> Set(Principal), which guarantees policies cannot crash at runtime and
// simplifies lowering to the solver.
package typer

import (
	"fmt"

	"scooter/internal/ast"
	"scooter/internal/schema"
	"scooter/internal/token"
)

// Error is a type error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Checker type-checks expressions and policies against a schema.
type Checker struct {
	Schema *schema.Schema
}

// New returns a checker over the given schema.
func New(s *schema.Schema) *Checker { return &Checker{Schema: s} }

// env maps variable names to types during checking.
type env struct {
	vars   map[string]ast.Type
	parent *env
}

func (e *env) lookup(name string) (ast.Type, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if t, ok := cur.vars[name]; ok {
			return t, true
		}
	}
	return ast.Type{}, false
}

func (e *env) child(name string, t ast.Type) *env {
	return &env{vars: map[string]ast.Type{name: t}, parent: e}
}

func (c *Checker) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// CheckPolicy checks that p is a valid policy for an operation on model; its
// function form must have type model -> Set(Principal).
func (c *Checker) CheckPolicy(model string, p ast.Policy) error {
	if p.Kind != ast.PolicyFunc {
		return nil // public and none are always valid
	}
	m := c.Schema.Model(model)
	if m == nil {
		return c.errorf(p.Pos, "policy attached to unknown model %s", model)
	}
	fn := p.Fn
	fn.ParamType = ast.ModelType(model)
	e := &env{vars: map[string]ast.Type{}}
	if fn.Param != "_" {
		e.vars[fn.Param] = fn.ParamType
	}
	got, err := c.checkExpr(e, fn.Body)
	if err != nil {
		return err
	}
	want := ast.PrincipalSetType()
	if !c.assignable(got, want) {
		return c.errorf(fn.Body.Pos(), "policy must produce Set(Principal), got %s", got)
	}
	if blob := findBlobExpr(fn.Body); blob != nil {
		return c.errorf(blob.Pos(), "Blob values cannot be referenced in policies (§6.1); store them in fields the policy does not read")
	}
	fn.SetType(want)
	return nil
}

// findBlobExpr returns a blob-typed subexpression, if any.
func findBlobExpr(e ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Walk(e, func(x ast.Expr) bool {
		if found != nil {
			return false
		}
		if x.Type().Kind == ast.TBlob {
			found = x
			return false
		}
		return true
	})
	return found
}

// CheckInitFn checks an AddField initialiser: model -> fieldType.
func (c *Checker) CheckInitFn(model string, fn *ast.FuncLit, fieldType ast.Type) error {
	if c.Schema.Model(model) == nil {
		return c.errorf(fn.Pos(), "initialiser attached to unknown model %s", model)
	}
	fn.ParamType = ast.ModelType(model)
	e := &env{vars: map[string]ast.Type{}}
	if fn.Param != "_" {
		e.vars[fn.Param] = fn.ParamType
	}
	got, err := c.checkExpr(e, fn.Body)
	if err != nil {
		return err
	}
	if !c.assignable(got, fieldType) {
		return c.errorf(fn.Body.Pos(), "initialiser must produce %s, got %s", fieldType, got)
	}
	fn.SetType(fieldType)
	return nil
}

// assignable reports whether a value of type `from` can be used where `to`
// is expected. Beyond equality, Scooter coerces: a model instance to its id;
// instances and ids of @principal models to Principal; element-wise over
// sets; and the invalid type acts as a wildcard (for empty set literals and
// bare None).
func (c *Checker) assignable(from, to ast.Type) bool {
	if from.Kind == ast.TInvalid || to.Kind == ast.TInvalid {
		return true
	}
	if from.Kind == ast.TSet && to.Kind == ast.TSet {
		return c.assignable(*from.Elem, *to.Elem)
	}
	if from.Kind == ast.TOption && to.Kind == ast.TOption {
		return c.assignable(*from.Elem, *to.Elem)
	}
	if from.Equal(to) {
		return true
	}
	// Instance -> its own id.
	if from.Kind == ast.TModel && to.Kind == ast.TId && from.Model == to.Model {
		return true
	}
	// Instance or id of a @principal model -> Principal.
	if to.Kind == ast.TPrincipal && (from.Kind == ast.TModel || from.Kind == ast.TId) {
		return c.Schema.IsPrincipalModel(from.Model)
	}
	// Strings coerce into blobs (the only way to initialise one).
	if from.Kind == ast.TString && to.Kind == ast.TBlob {
		return true
	}
	return false
}

// unify returns the common type of two branch types, if any.
func (c *Checker) unify(a, b ast.Type) (ast.Type, bool) {
	if a.Kind == ast.TInvalid {
		return b, true
	}
	if b.Kind == ast.TInvalid {
		return a, true
	}
	if a.Kind == ast.TSet && b.Kind == ast.TSet {
		elem, ok := c.unify(*a.Elem, *b.Elem)
		if !ok {
			return ast.Type{}, false
		}
		return ast.SetType(elem), true
	}
	if a.Kind == ast.TOption && b.Kind == ast.TOption {
		elem, ok := c.unify(*a.Elem, *b.Elem)
		if !ok {
			return ast.Type{}, false
		}
		return ast.OptionType(elem), true
	}
	if a.Equal(b) {
		return a, true
	}
	if c.assignable(a, b) {
		return b, true
	}
	if c.assignable(b, a) {
		return a, true
	}
	// Ids/instances of two different principal models unify at Principal.
	if c.assignable(a, ast.PrincipalType) && c.assignable(b, ast.PrincipalType) {
		return ast.PrincipalType, true
	}
	return ast.Type{}, false
}

func (c *Checker) checkExpr(e *env, x ast.Expr) (ast.Type, error) {
	t, err := c.inferExpr(e, x)
	if err != nil {
		return ast.Type{}, err
	}
	x.SetType(t)
	return t, nil
}

func (c *Checker) inferExpr(e *env, x ast.Expr) (ast.Type, error) {
	switch n := x.(type) {
	case *ast.StringLit:
		return ast.StringType, nil
	case *ast.IntLit:
		return ast.I64Type, nil
	case *ast.FloatLit:
		return ast.F64Type, nil
	case *ast.BoolLit:
		return ast.BoolType, nil
	case *ast.DateTimeLit:
		return ast.DateTimeType, nil
	case *ast.Now:
		return ast.DateTimeType, nil
	case *ast.Public:
		return ast.PrincipalSetType(), nil
	case *ast.Var:
		if t, ok := e.lookup(n.Name); ok {
			return t, nil
		}
		if c.Schema.HasStatic(n.Name) {
			return ast.PrincipalType, nil
		}
		return ast.Type{}, c.errorf(n.Pos(), "undefined variable %s", n.Name)
	case *ast.SetLit:
		elem := ast.Type{} // wildcard
		for _, el := range n.Elems {
			t, err := c.checkExpr(e, el)
			if err != nil {
				return ast.Type{}, err
			}
			u, ok := c.unify(elem, t)
			if !ok {
				return ast.Type{}, c.errorf(el.Pos(), "set element type %s does not match %s", t, elem)
			}
			elem = u
		}
		return ast.SetType(elem), nil
	case *ast.Binary:
		return c.inferBinary(e, n)
	case *ast.If:
		ct, err := c.checkExpr(e, n.Cond)
		if err != nil {
			return ast.Type{}, err
		}
		if ct.Kind != ast.TBool {
			return ast.Type{}, c.errorf(n.Cond.Pos(), "if condition must be Bool, got %s", ct)
		}
		tt, err := c.checkExpr(e, n.Then)
		if err != nil {
			return ast.Type{}, err
		}
		et, err := c.checkExpr(e, n.Else)
		if err != nil {
			return ast.Type{}, err
		}
		u, ok := c.unify(tt, et)
		if !ok {
			return ast.Type{}, c.errorf(n.Pos(), "if branches have incompatible types %s and %s", tt, et)
		}
		return u, nil
	case *ast.Match:
		st, err := c.checkExpr(e, n.Scrutinee)
		if err != nil {
			return ast.Type{}, err
		}
		if st.Kind != ast.TOption {
			return ast.Type{}, c.errorf(n.Scrutinee.Pos(), "match scrutinee must be Option, got %s", st)
		}
		someT, err := c.checkExpr(e.child(n.Binder, *st.Elem), n.SomeArm)
		if err != nil {
			return ast.Type{}, err
		}
		noneT, err := c.checkExpr(e, n.NoneArm)
		if err != nil {
			return ast.Type{}, err
		}
		u, ok := c.unify(someT, noneT)
		if !ok {
			return ast.Type{}, c.errorf(n.Pos(), "match arms have incompatible types %s and %s", someT, noneT)
		}
		return u, nil
	case *ast.NoneLit:
		return ast.OptionType(ast.Type{}), nil
	case *ast.SomeLit:
		t, err := c.checkExpr(e, n.Arg)
		if err != nil {
			return ast.Type{}, err
		}
		return ast.OptionType(t), nil
	case *ast.Map:
		rt, err := c.checkExpr(e, n.Recv)
		if err != nil {
			return ast.Type{}, err
		}
		if rt.Kind != ast.TSet {
			return ast.Type{}, c.errorf(n.Recv.Pos(), "map receiver must be a Set, got %s", rt)
		}
		n.Fn.ParamType = *rt.Elem
		bt, err := c.checkFnBody(e, n.Fn)
		if err != nil {
			return ast.Type{}, err
		}
		n.Fn.SetType(ast.SetType(bt))
		return ast.SetType(bt), nil
	case *ast.FlatMap:
		rt, err := c.checkExpr(e, n.Recv)
		if err != nil {
			return ast.Type{}, err
		}
		if rt.Kind != ast.TSet {
			return ast.Type{}, c.errorf(n.Recv.Pos(), "flat_map receiver must be a Set, got %s", rt)
		}
		n.Fn.ParamType = *rt.Elem
		bt, err := c.checkFnBody(e, n.Fn)
		if err != nil {
			return ast.Type{}, err
		}
		if bt.Kind != ast.TSet {
			return ast.Type{}, c.errorf(n.Fn.Body.Pos(), "flat_map function must produce a Set, got %s", bt)
		}
		n.Fn.SetType(bt)
		return bt, nil
	case *ast.FieldAccess:
		rt, err := c.checkExpr(e, n.Recv)
		if err != nil {
			return ast.Type{}, err
		}
		if rt.Kind != ast.TModel {
			return ast.Type{}, c.errorf(n.Pos(), "field access on non-instance type %s (use Model::ById to resolve ids)", rt)
		}
		m := c.Schema.Model(rt.Model)
		if m == nil {
			return ast.Type{}, c.errorf(n.Pos(), "unknown model %s", rt.Model)
		}
		if n.Field == schema.IDFieldName {
			return m.IDType(), nil
		}
		f := m.Field(n.Field)
		if f == nil {
			return ast.Type{}, c.errorf(n.Pos(), "model %s has no field %s", rt.Model, n.Field)
		}
		return f.Type, nil
	case *ast.ById:
		m := c.Schema.Model(n.Model)
		if m == nil {
			return ast.Type{}, c.errorf(n.Pos(), "unknown model %s", n.Model)
		}
		at, err := c.checkExpr(e, n.Arg)
		if err != nil {
			return ast.Type{}, err
		}
		if !c.assignable(at, m.IDType()) {
			return ast.Type{}, c.errorf(n.Arg.Pos(), "ById argument must be %s, got %s", m.IDType(), at)
		}
		return ast.ModelType(n.Model), nil
	case *ast.Find:
		return c.inferFind(e, n)
	case *ast.FuncLit:
		return ast.Type{}, c.errorf(n.Pos(), "function literal outside map/flat_map/policy position")
	}
	return ast.Type{}, c.errorf(x.Pos(), "unhandled expression %T", x)
}

func (c *Checker) checkFnBody(e *env, fn *ast.FuncLit) (ast.Type, error) {
	inner := e
	if fn.Param != "_" {
		inner = e.child(fn.Param, fn.ParamType)
	}
	return c.checkExpr(inner, fn.Body)
}

func (c *Checker) inferBinary(e *env, n *ast.Binary) (ast.Type, error) {
	lt, err := c.checkExpr(e, n.Left)
	if err != nil {
		return ast.Type{}, err
	}
	rt, err := c.checkExpr(e, n.Right)
	if err != nil {
		return ast.Type{}, err
	}
	switch n.Op {
	case ast.OpAdd:
		switch {
		case lt.Kind == ast.TSet && rt.Kind == ast.TSet:
			u, ok := c.unify(lt, rt)
			if !ok {
				return ast.Type{}, c.errorf(n.Pos(), "cannot union %s and %s", lt, rt)
			}
			return u, nil
		case lt.Kind == ast.TString && rt.Kind == ast.TString:
			return ast.StringType, nil
		case lt.Kind == ast.TI64 && rt.Kind == ast.TI64:
			return ast.I64Type, nil
		case lt.Kind == ast.TF64 && rt.Kind == ast.TF64:
			return ast.F64Type, nil
		case lt.Kind == ast.TDateTime && rt.Kind == ast.TI64:
			return ast.DateTimeType, nil
		}
		return ast.Type{}, c.errorf(n.Pos(), "operator + undefined for %s and %s", lt, rt)
	case ast.OpSub:
		switch {
		case lt.Kind == ast.TSet && rt.Kind == ast.TSet:
			u, ok := c.unify(lt, rt)
			if !ok {
				return ast.Type{}, c.errorf(n.Pos(), "cannot subtract %s from %s", rt, lt)
			}
			return u, nil
		case lt.Kind == ast.TI64 && rt.Kind == ast.TI64:
			return ast.I64Type, nil
		case lt.Kind == ast.TF64 && rt.Kind == ast.TF64:
			return ast.F64Type, nil
		case lt.Kind == ast.TDateTime && rt.Kind == ast.TI64:
			return ast.DateTimeType, nil
		}
		return ast.Type{}, c.errorf(n.Pos(), "operator - undefined for %s and %s", lt, rt)
	case ast.OpEq, ast.OpNe:
		if _, ok := c.unify(lt, rt); !ok {
			return ast.Type{}, c.errorf(n.Pos(), "cannot compare %s and %s", lt, rt)
		}
		if lt.Kind == ast.TSet || rt.Kind == ast.TSet {
			return ast.Type{}, c.errorf(n.Pos(), "set equality is not supported in policies")
		}
		if lt.Kind == ast.TBlob || rt.Kind == ast.TBlob {
			return ast.Type{}, c.errorf(n.Pos(), "Blob values cannot be compared (§6.1)")
		}
		return ast.BoolType, nil
	default: // numeric comparisons
		if !lt.IsNumeric() || !rt.IsNumeric() || lt.Kind != rt.Kind {
			return ast.Type{}, c.errorf(n.Pos(), "operator %s requires matching numeric types, got %s and %s", n.Op, lt, rt)
		}
		return ast.BoolType, nil
	}
}

func (c *Checker) inferFind(e *env, n *ast.Find) (ast.Type, error) {
	m := c.Schema.Model(n.Model)
	if m == nil {
		return ast.Type{}, c.errorf(n.Pos(), "unknown model %s", n.Model)
	}
	for i := range n.Clauses {
		cl := &n.Clauses[i]
		var ft ast.Type
		if cl.Field == schema.IDFieldName {
			ft = m.IDType()
		} else {
			f := m.Field(cl.Field)
			if f == nil {
				return ast.Type{}, c.errorf(cl.Pos, "model %s has no field %s", n.Model, cl.Field)
			}
			ft = f.Type
		}
		vt, err := c.checkExpr(e, cl.Value)
		if err != nil {
			return ast.Type{}, err
		}
		switch cl.Op {
		case ast.FindEq:
			if ft.Kind == ast.TSet {
				return ast.Type{}, c.errorf(cl.Pos, "use the containment operator > to query set field %s", cl.Field)
			}
			if ft.Kind == ast.TBlob {
				return ast.Type{}, c.errorf(cl.Pos, "Blob field %s cannot be queried (§6.1)", cl.Field)
			}
			if !c.assignable(vt, ft) {
				return ast.Type{}, c.errorf(cl.Pos, "Find value for %s must be %s, got %s", cl.Field, ft, vt)
			}
		case ast.FindGt:
			// `>` means containment on set fields, greater-than on numerics.
			if ft.Kind == ast.TSet {
				cl.Op = ast.FindContains
				if !c.assignable(vt, *ft.Elem) {
					return ast.Type{}, c.errorf(cl.Pos, "containment value for %s must be %s, got %s", cl.Field, ft.Elem, vt)
				}
			} else if !ft.IsNumeric() || vt.Kind != ft.Kind {
				return ast.Type{}, c.errorf(cl.Pos, "Find comparison on %s requires matching numeric types, got %s and %s", cl.Field, ft, vt)
			}
		case ast.FindContains:
			if ft.Kind != ast.TSet || !c.assignable(vt, *ft.Elem) {
				return ast.Type{}, c.errorf(cl.Pos, "containment query on non-set field %s", cl.Field)
			}
		default: // numeric comparisons
			if !ft.IsNumeric() || vt.Kind != ft.Kind {
				return ast.Type{}, c.errorf(cl.Pos, "Find comparison on %s requires matching numeric types, got %s and %s", cl.Field, ft, vt)
			}
		}
	}
	return ast.SetType(ast.ModelType(n.Model)), nil
}

// CheckSchema validates every policy in the schema; used when loading a
// policy file.
func (c *Checker) CheckSchema() error {
	for _, m := range c.Schema.Models {
		if err := c.CheckPolicy(m.Name, m.Create); err != nil {
			return fmt.Errorf("%s.create: %w", m.Name, err)
		}
		if err := c.CheckPolicy(m.Name, m.Delete); err != nil {
			return fmt.Errorf("%s.delete: %w", m.Name, err)
		}
		for _, f := range m.Fields {
			for _, mt := range f.Type.ReferencedModels() {
				if c.Schema.Model(mt) == nil {
					return fmt.Errorf("%s.%s: unknown model %s in type %s", m.Name, f.Name, mt, f.Type)
				}
			}
			if err := c.CheckPolicy(m.Name, f.Read); err != nil {
				return fmt.Errorf("%s.%s.read: %w", m.Name, f.Name, err)
			}
			if err := c.CheckPolicy(m.Name, f.Write); err != nil {
				return fmt.Errorf("%s.%s.write: %w", m.Name, f.Name, err)
			}
		}
	}
	return nil
}
