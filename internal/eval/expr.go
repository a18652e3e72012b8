package eval

import (
	"fmt"
	"time"

	"scooter/internal/ast"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// evalExpr evaluates a scalar or Option expression to a runtime value:
// int64, float64, bool, string, store.ID, store.Optional, []store.Value,
// instance, or staticRef.
func (ev *Evaluator) evalExpr(e *env, x ast.Expr) (any, error) {
	switch n := x.(type) {
	case *ast.StringLit:
		return n.Value, nil
	case *ast.IntLit:
		return n.Value, nil
	case *ast.FloatLit:
		return n.Value, nil
	case *ast.BoolLit:
		return n.Value, nil
	case *ast.DateTimeLit:
		return n.Unix, nil
	case *ast.Now:
		if ev.FixedNow != 0 {
			return ev.FixedNow, nil
		}
		return time.Now().Unix(), nil
	case *ast.Var:
		if v, ok := e.lookup(n.Name); ok {
			return v, nil
		}
		if ev.Schema.HasStatic(n.Name) {
			return staticRef(n.Name), nil
		}
		return nil, fmt.Errorf("eval: unbound variable %s", n.Name)
	case *ast.Binary:
		return ev.evalBinary(e, n)
	case *ast.If:
		cond, err := ev.evalBool(e, n.Cond)
		if err != nil {
			return nil, err
		}
		if cond {
			return ev.evalExpr(e, n.Then)
		}
		return ev.evalExpr(e, n.Else)
	case *ast.Match:
		opt, err := ev.evalOption(e, n.Scrutinee)
		if err != nil {
			return nil, err
		}
		if opt.Present {
			return ev.evalExpr(e.bind(n.Binder, opt.Value), n.SomeArm)
		}
		return ev.evalExpr(e, n.NoneArm)
	case *ast.NoneLit:
		return store.None(), nil
	case *ast.SomeLit:
		v, err := ev.evalExpr(e, n.Arg)
		if err != nil {
			return nil, err
		}
		return store.Some(toStoreValue(v)), nil
	case *ast.FieldAccess:
		recv, err := ev.evalExpr(e, n.Recv)
		if err != nil {
			return nil, err
		}
		inst, err := ev.toInstance(recv, n.Recv.Type())
		if err != nil {
			return nil, err
		}
		if n.Field == schema.IDFieldName {
			return inst.doc.ID(), nil
		}
		v, ok := inst.doc[n.Field]
		if !ok {
			return nil, fmt.Errorf("eval: document %v has no field %s", inst.doc.ID(), n.Field)
		}
		return v, nil
	case *ast.ById:
		v, err := ev.evalExpr(e, n.Arg)
		if err != nil {
			return nil, err
		}
		id, ok := v.(store.ID)
		if !ok {
			if inst, isInst := v.(instance); isInst {
				id = inst.doc.ID()
			} else {
				return nil, fmt.Errorf("eval: ById argument is %T, not an id", v)
			}
		}
		doc, ok := ev.DB.Collection(n.Model).Get(id)
		if !ok {
			return nil, fmt.Errorf("eval: %s::ById(%v): no such document", n.Model, id)
		}
		return instance{model: n.Model, doc: doc}, nil
	case *ast.Find:
		filters, err := ev.findFilters(e, n)
		if err != nil {
			return nil, err
		}
		docs := ev.DB.Collection(n.Model).Find(filters...)
		out := make([]store.Value, len(docs))
		for i, d := range docs {
			out[i] = d.ID()
		}
		return out, nil
	case *ast.Map:
		elems, err := ev.evalInstanceSet(e, n.Recv)
		if err != nil {
			return nil, err
		}
		out := make([]store.Value, 0, len(elems))
		for _, inst := range elems {
			inner := e
			if n.Fn.Param != "_" {
				inner = e.bind(n.Fn.Param, inst)
			}
			v, err := ev.evalExpr(inner, n.Fn.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, toStoreValue(v))
		}
		return out, nil
	case *ast.FlatMap:
		elems, err := ev.evalInstanceSet(e, n.Recv)
		if err != nil {
			return nil, err
		}
		var out []store.Value
		for _, inst := range elems {
			inner := e
			if n.Fn.Param != "_" {
				inner = e.bind(n.Fn.Param, inst)
			}
			v, err := ev.evalExpr(inner, n.Fn.Body)
			if err != nil {
				return nil, err
			}
			set, ok := v.([]store.Value)
			if !ok {
				return nil, fmt.Errorf("eval: flat_map body produced %T, not a set", v)
			}
			out = append(out, set...)
		}
		return out, nil
	case *ast.SetLit:
		out := make([]store.Value, 0, len(n.Elems))
		for _, el := range n.Elems {
			v, err := ev.evalExpr(e, el)
			if err != nil {
				return nil, err
			}
			out = append(out, toStoreValue(v))
		}
		return out, nil
	case *ast.Public:
		return nil, fmt.Errorf("eval: public cannot be materialised; use Allowed")
	}
	return nil, fmt.Errorf("eval: unhandled expression %T", x)
}

func (ev *Evaluator) evalBinary(e *env, n *ast.Binary) (any, error) {
	// Set union/subtraction at value level.
	if n.Type().Kind == ast.TSet {
		l, err := ev.evalExpr(e, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalExpr(e, n.Right)
		if err != nil {
			return nil, err
		}
		ls, lok := l.([]store.Value)
		rs, rok := r.([]store.Value)
		if !lok || !rok {
			return nil, fmt.Errorf("eval: set operation on non-sets")
		}
		if n.Op == ast.OpAdd {
			return append(append([]store.Value{}, ls...), rs...), nil
		}
		var out []store.Value
		for _, lv := range ls {
			keep := true
			for _, rv := range rs {
				if valuesEqual(lv, rv) {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, lv)
			}
		}
		return out, nil
	}

	l, err := ev.evalExpr(e, n.Left)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalExpr(e, n.Right)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case ast.OpEq:
		return valuesEqual(toStoreValue(l), toStoreValue(r)), nil
	case ast.OpNe:
		return !valuesEqual(toStoreValue(l), toStoreValue(r)), nil
	case ast.OpAdd:
		switch lv := l.(type) {
		case string:
			return lv + r.(string), nil
		case int64:
			return lv + r.(int64), nil
		case float64:
			return lv + r.(float64), nil
		}
	case ast.OpSub:
		switch lv := l.(type) {
		case int64:
			return lv - r.(int64), nil
		case float64:
			return lv - r.(float64), nil
		}
	default:
		c, ok := store.CompareNumeric(l, r)
		if !ok {
			return nil, fmt.Errorf("eval: cannot compare %T and %T", l, r)
		}
		switch n.Op {
		case ast.OpLt:
			return c < 0, nil
		case ast.OpLe:
			return c <= 0, nil
		case ast.OpGt:
			return c > 0, nil
		case ast.OpGe:
			return c >= 0, nil
		}
	}
	return nil, fmt.Errorf("eval: operator %s on %T and %T", n.Op, l, r)
}

func valuesEqual(a, b store.Value) bool {
	if oa, ok := a.(store.Optional); ok {
		ob, ok := b.(store.Optional)
		if !ok {
			return false
		}
		if oa.Present != ob.Present {
			return false
		}
		return !oa.Present || valuesEqual(oa.Value, ob.Value)
	}
	if c, ok := store.CompareNumeric(a, b); ok {
		return c == 0
	}
	return a == b
}
