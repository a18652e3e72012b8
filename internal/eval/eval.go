// Package eval interprets Scooter policy functions and migration
// initialisers at runtime against the document store. The ORM consults it
// on every CRUD operation to enforce policies dynamically (paper §3.3);
// the migration executor uses it to populate new fields.
//
// Membership checks mirror the verifier's translation: rather than
// materialising principal sets, Contains distributes the membership test
// over the policy expression, turning Find into store queries.
package eval

import (
	"fmt"

	"scooter/internal/ast"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Principal identifies who performs an operation: a static principal by
// name, or an instance of a @principal model by id.
type Principal struct {
	Static string
	Model  string
	ID     store.ID
}

// StaticPrincipal returns a static principal.
func StaticPrincipal(name string) Principal { return Principal{Static: name} }

// InstancePrincipal returns a dynamic principal.
func InstancePrincipal(model string, id store.ID) Principal {
	return Principal{Model: model, ID: id}
}

func (p Principal) String() string {
	if p.Static != "" {
		return p.Static
	}
	return fmt.Sprintf("%s(%v)", p.Model, p.ID)
}

// instance is a runtime model instance: the document plus its model.
type instance struct {
	model string
	doc   store.Doc
}

// Evaluator interprets policies against a database.
type Evaluator struct {
	Schema *schema.Schema
	DB     *store.DB
	// FixedNow, when non-zero, is the UNIX timestamp now() evaluates to.
	// Migration execution pins it to the journal's AppliedAt so a
	// crash-resumed run recomputes now()-populated fields byte-identically;
	// zero (the policy-enforcement path) falls back to the wall clock.
	FixedNow int64
}

// New returns an evaluator.
func New(s *schema.Schema, db *store.DB) *Evaluator {
	return &Evaluator{Schema: s, DB: db}
}

// env binds variables during evaluation.
type env struct {
	name   string
	val    any // instance, store.Value
	parent *env
}

func (e *env) bind(name string, v any) *env { return &env{name: name, val: v, parent: e} }

func (e *env) lookup(name string) (any, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

// Allowed reports whether principal p may perform the operation guarded by
// pol on the given instance of model.
func (ev *Evaluator) Allowed(p Principal, model string, doc store.Doc, pol ast.Policy) (bool, error) {
	switch pol.Kind {
	case ast.PolicyPublic:
		return true, nil
	case ast.PolicyNone:
		return false, nil
	}
	fn := pol.Fn
	var e *env
	if fn.Param != "_" {
		e = e.bind(fn.Param, instance{model: model, doc: doc})
	}
	return ev.contains(e, p, fn.Body)
}

// EvalInit evaluates an AddField initialiser for one document, returning
// the new field's value. A NaN result (say p.score - p.score on a stored
// +Inf) is an error: a NaN compares equal to every number, so storing it
// would turn comparisons in policies into always-true tests.
func (ev *Evaluator) EvalInit(model string, doc store.Doc, init *ast.FuncLit) (store.Value, error) {
	var e *env
	if init.Param != "_" {
		e = e.bind(init.Param, instance{model: model, doc: doc})
	}
	v, err := ev.evalExpr(e, init.Body)
	if err != nil {
		return nil, err
	}
	sv := toStoreValue(v)
	if store.HasNaN(sv) {
		return nil, fmt.Errorf("eval: initialiser of %s(%v) yields NaN", model, doc.ID())
	}
	return sv, nil
}

// contains checks p ∈ e for a set-typed policy expression.
func (ev *Evaluator) contains(e *env, p Principal, x ast.Expr) (bool, error) {
	switch n := x.(type) {
	case *ast.Public:
		return true, nil
	case *ast.SetLit:
		for _, el := range n.Elems {
			ok, err := ev.principalEq(e, p, el)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *ast.Binary:
		switch n.Op {
		case ast.OpAdd:
			ok, err := ev.contains(e, p, n.Left)
			if err != nil || ok {
				return ok, err
			}
			return ev.contains(e, p, n.Right)
		case ast.OpSub:
			ok, err := ev.contains(e, p, n.Left)
			if err != nil || !ok {
				return false, err
			}
			excluded, err := ev.contains(e, p, n.Right)
			if err != nil {
				return false, err
			}
			return !excluded, nil
		}
		return false, fmt.Errorf("eval: %s is not a set operator", n.Op)
	case *ast.If:
		cond, err := ev.evalBool(e, n.Cond)
		if err != nil {
			return false, err
		}
		if cond {
			return ev.contains(e, p, n.Then)
		}
		return ev.contains(e, p, n.Else)
	case *ast.Match:
		opt, err := ev.evalOption(e, n.Scrutinee)
		if err != nil {
			return false, err
		}
		if opt.Present {
			return ev.contains(e.bind(n.Binder, opt.Value), p, n.SomeArm)
		}
		return ev.contains(e, p, n.NoneArm)
	case *ast.Find:
		if p.Model != n.Model {
			return false, nil
		}
		filters, err := ev.findFilters(e, n)
		if err != nil {
			return false, err
		}
		doc, ok := ev.DB.Collection(n.Model).Get(p.ID)
		return ok && store.MatchAll(doc, filters), nil
	case *ast.Map:
		elems, err := ev.evalInstanceSet(e, n.Recv)
		if err != nil {
			return false, err
		}
		for _, inst := range elems {
			var inner *env
			if n.Fn.Param != "_" {
				inner = e.bind(n.Fn.Param, inst)
			} else {
				inner = e
			}
			ok, err := ev.principalEqValue(inner, p, n.Fn.Body)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *ast.FlatMap:
		elems, err := ev.evalInstanceSet(e, n.Recv)
		if err != nil {
			return false, err
		}
		for _, inst := range elems {
			inner := e
			if n.Fn.Param != "_" {
				inner = e.bind(n.Fn.Param, inst)
			}
			ok, err := ev.contains(inner, p, n.Fn.Body)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *ast.FieldAccess:
		// Set field: check the stored set for the principal's id.
		v, err := ev.evalExpr(e, x)
		if err != nil {
			return false, err
		}
		set, ok := v.([]store.Value)
		if !ok {
			return false, fmt.Errorf("eval: %s is not a set field", n.Field)
		}
		if p.Model == "" {
			return false, nil
		}
		for _, el := range set {
			if id, ok := el.(store.ID); ok && id == p.ID {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("eval: %T is not a set expression", x)
}

// findFilters converts Find clauses into store filters by evaluating the
// clause values.
func (ev *Evaluator) findFilters(e *env, n *ast.Find) ([]store.Filter, error) {
	filters := make([]store.Filter, 0, len(n.Clauses))
	for _, cl := range n.Clauses {
		v, err := ev.evalExpr(e, cl.Value)
		if err != nil {
			return nil, err
		}
		var op store.FilterOp
		switch cl.Op {
		case ast.FindEq:
			op = store.FilterEq
		case ast.FindContains:
			op = store.FilterContains
		case ast.FindLt:
			op = store.FilterLt
		case ast.FindLe:
			op = store.FilterLe
		case ast.FindGt:
			op = store.FilterGt
		case ast.FindGe:
			op = store.FilterGe
		}
		filters = append(filters, store.Filter{Field: cl.Field, Op: op, Value: toStoreValue(v)})
	}
	return filters, nil
}

// evalInstanceSet materialises a set expression whose elements are
// instances or ids, as instances.
func (ev *Evaluator) evalInstanceSet(e *env, x ast.Expr) ([]instance, error) {
	switch n := x.(type) {
	case *ast.Find:
		filters, err := ev.findFilters(e, n)
		if err != nil {
			return nil, err
		}
		docs := ev.DB.Collection(n.Model).Find(filters...)
		out := make([]instance, len(docs))
		for i, d := range docs {
			out[i] = instance{model: n.Model, doc: d}
		}
		return out, nil
	case *ast.FieldAccess:
		// Set field of ids.
		v, err := ev.evalExpr(e, x)
		if err != nil {
			return nil, err
		}
		set, ok := v.([]store.Value)
		if !ok {
			return nil, fmt.Errorf("eval: %s is not a set", n.Field)
		}
		elemModel := ""
		if t := n.Type(); t.Kind == ast.TSet && t.Elem != nil {
			elemModel = t.Elem.Model
		}
		var out []instance
		for _, el := range set {
			id, ok := el.(store.ID)
			if !ok {
				continue
			}
			doc, ok := ev.DB.Collection(elemModel).Get(id)
			if !ok {
				continue // dangling reference
			}
			out = append(out, instance{model: elemModel, doc: doc})
		}
		return out, nil
	case *ast.Binary:
		if n.Op == ast.OpAdd {
			l, err := ev.evalInstanceSet(e, n.Left)
			if err != nil {
				return nil, err
			}
			r, err := ev.evalInstanceSet(e, n.Right)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
	case *ast.SetLit:
		var out []instance
		for _, el := range n.Elems {
			v, err := ev.evalExpr(e, el)
			if err != nil {
				return nil, err
			}
			inst, err := ev.toInstance(v, el.Type())
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
		return out, nil
	}
	return nil, fmt.Errorf("eval: cannot materialise %T as an instance set", x)
}

func (ev *Evaluator) toInstance(v any, t ast.Type) (instance, error) {
	switch x := v.(type) {
	case instance:
		return x, nil
	case store.ID:
		model := t.Model
		doc, ok := ev.DB.Collection(model).Get(x)
		if !ok {
			return instance{}, fmt.Errorf("eval: dangling id %v in %s", x, model)
		}
		return instance{model: model, doc: doc}, nil
	}
	return instance{}, fmt.Errorf("eval: %T is not an instance", v)
}

// principalEq compares a principal with a set-literal element.
func (ev *Evaluator) principalEq(e *env, p Principal, x ast.Expr) (bool, error) {
	return ev.principalEqValue(e, p, x)
}

// principalEqValue evaluates x and compares it with p.
func (ev *Evaluator) principalEqValue(e *env, p Principal, x ast.Expr) (bool, error) {
	// Static principal references evaluate to their name sentinel.
	v, err := ev.evalExpr(e, x)
	if err != nil {
		return false, err
	}
	switch val := v.(type) {
	case staticRef:
		return p.Static == string(val), nil
	case store.ID:
		return p.Static == "" && p.ID == val, nil
	case instance:
		return p.Static == "" && p.Model == val.model && p.ID == val.doc.ID(), nil
	}
	return false, fmt.Errorf("eval: %T cannot act as a principal", v)
}

// staticRef is the runtime value of a static principal reference.
type staticRef string

func (ev *Evaluator) evalBool(e *env, x ast.Expr) (bool, error) {
	v, err := ev.evalExpr(e, x)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("eval: %s is not a Bool", x)
	}
	return b, nil
}

func (ev *Evaluator) evalOption(e *env, x ast.Expr) (store.Optional, error) {
	v, err := ev.evalExpr(e, x)
	if err != nil {
		return store.Optional{}, err
	}
	o, ok := v.(store.Optional)
	if !ok {
		return store.Optional{}, fmt.Errorf("eval: %s is not an Option", x)
	}
	return o, nil
}

// toStoreValue converts an evaluation result into a storable value.
func toStoreValue(v any) store.Value {
	switch x := v.(type) {
	case instance:
		return x.doc.ID()
	case []any:
		out := make([]store.Value, len(x))
		for i, e := range x {
			out[i] = toStoreValue(e)
		}
		return out
	default:
		return v
	}
}
