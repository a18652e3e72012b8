package ast

// Walk calls fn on e and every sub-expression of e in pre-order. If fn
// returns false, the children of the current node are skipped.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *SetLit:
		for _, el := range n.Elems {
			Walk(el, fn)
		}
	case *Binary:
		Walk(n.Left, fn)
		Walk(n.Right, fn)
	case *If:
		Walk(n.Cond, fn)
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case *Match:
		Walk(n.Scrutinee, fn)
		Walk(n.SomeArm, fn)
		Walk(n.NoneArm, fn)
	case *SomeLit:
		Walk(n.Arg, fn)
	case *FuncLit:
		Walk(n.Body, fn)
	case *Map:
		Walk(n.Recv, fn)
		Walk(n.Fn, fn)
	case *FlatMap:
		Walk(n.Recv, fn)
		Walk(n.Fn, fn)
	case *FieldAccess:
		Walk(n.Recv, fn)
	case *ById:
		Walk(n.Arg, fn)
	case *Find:
		for _, c := range n.Clauses {
			Walk(c.Value, fn)
		}
	}
}

// FieldRef identifies a model field.
type FieldRef struct {
	Model string
	Field string
}

// refSets holds the reference sets of one expression.
type refSets struct {
	models map[string]bool
	fields map[FieldRef]bool
}

func refsOf(e Expr) refSets {
	r := refSets{models: map[string]bool{}, fields: map[FieldRef]bool{}}
	Walk(e, func(e Expr) bool {
		switch n := e.(type) {
		case *FieldAccess:
			rt := n.Recv.Type()
			if rt.Kind == TModel {
				r.fields[FieldRef{Model: rt.Model, Field: n.Field}] = true
			}
		case *Find:
			r.models[n.Model] = true
			for _, c := range n.Clauses {
				r.fields[FieldRef{Model: n.Model, Field: c.Field}] = true
			}
		case *ById:
			r.models[n.Model] = true
		}
		return true
	})
	return r
}

// ReferencedModels returns the names of models referenced by the expression
// through Find or ById.
func ReferencedModels(e Expr) map[string]bool {
	return refsOf(e).models
}

// ReferencedFields returns every model field the (type-checked) expression
// reads, via direct access, Find clauses, or set-field traversal. It relies
// on the types recorded by the checker to resolve receivers.
func ReferencedFields(e Expr) map[FieldRef]bool {
	return refsOf(e).fields
}

// ReferencedVars returns the free variables of e given the bound set.
func ReferencedVars(e Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(e Expr, bound map[string]bool)
	walk = func(e Expr, bound map[string]bool) {
		switch n := e.(type) {
		case *Var:
			if !bound[n.Name] {
				out[n.Name] = true
			}
		case *SetLit:
			for _, el := range n.Elems {
				walk(el, bound)
			}
		case *Binary:
			walk(n.Left, bound)
			walk(n.Right, bound)
		case *If:
			walk(n.Cond, bound)
			walk(n.Then, bound)
			walk(n.Else, bound)
		case *Match:
			walk(n.Scrutinee, bound)
			inner := withBound(bound, n.Binder)
			walk(n.SomeArm, inner)
			walk(n.NoneArm, bound)
		case *SomeLit:
			walk(n.Arg, bound)
		case *FuncLit:
			walk(n.Body, withBound(bound, n.Param))
		case *Map:
			walk(n.Recv, bound)
			walk(n.Fn.Body, withBound(bound, n.Fn.Param))
		case *FlatMap:
			walk(n.Recv, bound)
			walk(n.Fn.Body, withBound(bound, n.Fn.Param))
		case *FieldAccess:
			walk(n.Recv, bound)
		case *ById:
			walk(n.Arg, bound)
		case *Find:
			for _, c := range n.Clauses {
				walk(c.Value, bound)
			}
		}
	}
	walk(e, map[string]bool{})
	return out
}

func withBound(bound map[string]bool, name string) map[string]bool {
	inner := make(map[string]bool, len(bound)+1)
	for k := range bound {
		inner[k] = true
	}
	inner[name] = true
	return inner
}
