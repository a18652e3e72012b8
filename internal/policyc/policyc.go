// Package policyc compiles Scooter field and model policies into
// specialized Go closures at spec-load time (a partial evaluator over the
// policy AST). The ORM's per-document hot path then runs a chain of small
// closures instead of re-walking the AST through the interpreter on every
// field of every document:
//
//   - static-principal references constant-fold to a single string compare,
//   - variable references resolve to fixed environment slots at compile
//     time (no linked-list scope walk, no map lookups),
//   - field names, referenced model names, and Find filter operators are
//     captured as constants, and Find plans whose clause values are all
//     literals hoist the whole []store.Filter out of the per-document path,
//   - set-literal membership unrolls into a fixed OR chain.
//
// Compilation is semantics-preserving by construction: every closure is a
// line-for-line specialization of the corresponding internal/eval case,
// including evaluation order, error behaviour, and the interpreter's
// numeric-comparison rules (via eval.ValuesEqual / eval.CompareNumeric).
// The interpreter stays authoritative: policies the compiler cannot
// specialize (today: binder nesting deeper than maxSlots) fall back to it,
// and orm.SetInterpretedOracle runs both engines and reports divergence.
package policyc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Principal aliases the evaluator's principal type.
type Principal = eval.Principal

// maxSlots bounds compile-time environment depth. Policies nest binders via
// the policy parameter, match binders, and map/flat_map parameters; real
// specs use one or two. Deeper nesting falls back to the interpreter.
const maxSlots = 8

// instance mirrors eval's runtime model instance, with the document id
// resolved at construction so principal comparisons skip the map lookup.
type instance struct {
	model string
	doc   store.Doc
	id    store.ID
}

// staticRef mirrors eval's runtime value of a static principal reference.
type staticRef string

// rt is the per-evaluation runtime frame threaded through every compiled
// closure: the database, the acting principal, and the binder slots the
// compiler allocated. Frames are pooled (see framePool in table.go) and
// instance binders live in islots — a typed array — so the hot path never
// boxes an instance into an interface and never heap-allocates. Slot reads
// are always dominated by a slot write within the same decision, so stale
// values from a previous pooled use are unobservable.
type rt struct {
	db       *store.DB
	fixedNow int64
	p        Principal
	islots   [maxSlots]instance // isInst binders: policy params, map/flat_map params
	slots    [maxSlots]any      // generic binders: match arms
	// probes memoizes membership-probe verdicts for the frame's lifetime
	// (see probeEntry). nprobes is reset by NewFrame and SetTarget.
	probes  [maxProbes]probeEntry
	nprobes int
}

// maxProbes bounds the per-frame Find-membership memo; probes beyond the
// bound stay correct, they just re-query the store.
const maxProbes = 8

// probeEntry is one memoized membership-probe verdict. A static Find
// probe ("is the principal in User::Find({isAdmin: true})?") depends only
// on the principal, the database, and the constant filter plan; a slot-0
// field probe ("is the principal in the target's followers?") additionally
// depends on the frame's target. All are fixed between NewFrame/SetTarget
// and the next retarget — both reset the memo — so policies sharing the
// frame (every field of one document under strip) resolve repeated probes
// with a pointer scan instead of a store query. Keyed by interned site
// pointer, so entries from different tables can never collide.
type probeEntry struct {
	site    *collSite
	verdict bool
}

// collSite is a one-entry inline cache resolving one compiled closure's
// collection reference. The site caches the (db, collection) pair it saw
// last and revalidates with two pointer compares plus a dropped check;
// only a database switch or a dropped collection falls back to the locked
// DB.Collection lookup. The cached pair keeps its database reachable for
// as long as the Table lives (see Table).
type collSite struct {
	model string
	cache atomic.Pointer[collEntry]
}

type collEntry struct {
	db *store.DB
	c  *store.Collection
}

func (s *collSite) coll(db *store.DB) *store.Collection {
	if e := s.cache.Load(); e != nil && e.db == db && !e.c.Dropped() {
		return e.c
	}
	c := db.Collection(s.model)
	s.cache.Store(&collEntry{db: db, c: c})
	return c
}

// toInstance mirrors Evaluator.toInstance with the element model resolved
// at compile time.
func (r *rt) toInstance(v any, model string) (instance, error) {
	switch x := v.(type) {
	case instance:
		return x, nil
	case store.ID:
		doc, ok := r.db.Collection(model).Get(x)
		if !ok {
			return instance{}, fmt.Errorf("eval: dangling id %v in %s", x, model)
		}
		return instance{model: model, doc: doc, id: x}, nil
	}
	return instance{}, fmt.Errorf("eval: %T is not an instance", v)
}

// toStoreValue mirrors eval.toStoreValue over policyc's instance type.
func toStoreValue(v any) store.Value {
	switch x := v.(type) {
	case instance:
		return x.id
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

// Closure signatures. boolFn decides set membership (or a Bool expression),
// exprFn produces a runtime value with the same dynamic types the
// interpreter uses, instSetFn materialises an instance set, filtersFn
// produces a Find's store filters.
type (
	boolFn    func(r *rt) (bool, error)
	exprFn    func(r *rt) (any, error)
	instSetFn func(r *rt) ([]instance, error)
	filtersFn func(r *rt) ([]store.Filter, error)
)

// errTooDeep aborts compilation of one policy; the Table records it as an
// interpreter fallback. It is the only compile-time failure: unsupported
// runtime shapes compile to closures returning the interpreter's own
// runtime errors, preserving error parity without widening the fallback.
var errTooDeep = fmt.Errorf("policyc: binder nesting exceeds %d slots", maxSlots)

// scope is the compile-time environment: binder names mapped to runtime
// slots. isInst marks slots that can only ever hold an instance (policy
// parameters and map/flat_map binders), enabling a specialized principal
// comparison.
type scope struct {
	name   string
	slot   int
	isInst bool
	parent *scope
}

func (sc *scope) bind(name string, isInst bool) (*scope, int, error) {
	slot := 0
	if sc != nil {
		slot = sc.slot + 1
	}
	if slot >= maxSlots {
		return nil, 0, errTooDeep
	}
	return &scope{name: name, slot: slot, isInst: isInst, parent: sc}, slot, nil
}

func (sc *scope) lookup(name string) (int, bool, bool) {
	for cur := sc; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.slot, cur.isInst, true
		}
	}
	return 0, false, false
}

// compiler compiles the policies of one schema.
type compiler struct {
	schema *schema.Schema
	// sites interns the collSite of each static Find membership probe by
	// (model, filter plan), so textually identical probes in different
	// policies — chitter's email and isAdmin both ask "is the principal an
	// admin?" — share one site pointer and therefore one per-frame memo
	// entry (see probeEntry).
	sites map[string]*collSite
}

// staticSite returns the interned site for a static membership probe,
// creating it on first use.
func (c *compiler) staticSite(model string, plan []store.Filter) *collSite {
	var b strings.Builder
	b.WriteString(model)
	for _, f := range plan {
		fmt.Fprintf(&b, "|%s %d %v %T", f.Field, f.Op, f.Value, f.Value)
	}
	key := b.String()
	if s, ok := c.sites[key]; ok {
		return s
	}
	s := &collSite{model: model}
	if c.sites == nil {
		c.sites = make(map[string]*collSite)
	}
	c.sites[key] = s
	return s
}

// fieldProbeSite interns the memo identity of a slot-0 field-membership
// probe ("is the principal in the target's <field> set?"). The leading
// NUL keeps the key space disjoint from staticSite's model-prefixed keys;
// the site is never used as a collection cache, only as a memo key.
func (c *compiler) fieldProbeSite(field string) *collSite {
	key := "\x00field0|" + field
	if s, ok := c.sites[key]; ok {
		return s
	}
	s := &collSite{}
	if c.sites == nil {
		c.sites = make(map[string]*collSite)
	}
	c.sites[key] = s
	return s
}

// constFalse and constTrue are shared trivial closures.
func constBool(v bool) boolFn {
	return func(*rt) (bool, error) { return v, nil }
}

// errBool returns a closure failing with a fixed error, used for constructs
// the interpreter also rejects at runtime (unreachable after type
// checking, kept for parity).
func errBool(err error) boolFn {
	return func(*rt) (bool, error) { return false, err }
}

func errExpr(err error) exprFn {
	return func(*rt) (any, error) { return nil, err }
}

// contains compiles p ∈ x for a set-typed policy expression, mirroring
// Evaluator.contains case by case.
func (c *compiler) contains(sc *scope, x ast.Expr) (boolFn, error) {
	switch n := x.(type) {
	case *ast.Public:
		return constBool(true), nil
	case *ast.SetLit:
		eqs := make([]boolFn, len(n.Elems))
		for i, el := range n.Elems {
			eq, err := c.principalEq(sc, el)
			if err != nil {
				return nil, err
			}
			eqs[i] = eq
		}
		if len(eqs) == 1 {
			return eqs[0], nil
		}
		return func(r *rt) (bool, error) {
			for _, eq := range eqs {
				ok, err := eq(r)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
			return false, nil
		}, nil
	case *ast.Binary:
		switch n.Op {
		case ast.OpAdd:
			l, err := c.contains(sc, n.Left)
			if err != nil {
				return nil, err
			}
			rr, err := c.contains(sc, n.Right)
			if err != nil {
				return nil, err
			}
			return func(r *rt) (bool, error) {
				ok, err := l(r)
				if err != nil || ok {
					return ok, err
				}
				return rr(r)
			}, nil
		case ast.OpSub:
			l, err := c.contains(sc, n.Left)
			if err != nil {
				return nil, err
			}
			rr, err := c.contains(sc, n.Right)
			if err != nil {
				return nil, err
			}
			return func(r *rt) (bool, error) {
				ok, err := l(r)
				if err != nil || !ok {
					return false, err
				}
				excluded, err := rr(r)
				if err != nil {
					return false, err
				}
				return !excluded, nil
			}, nil
		}
		return errBool(fmt.Errorf("eval: %s is not a set operator", n.Op)), nil
	case *ast.If:
		cond, err := c.boolExpr(sc, n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.contains(sc, n.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.contains(sc, n.Else)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (bool, error) {
			ok, err := cond(r)
			if err != nil {
				return false, err
			}
			if ok {
				return then(r)
			}
			return els(r)
		}, nil
	case *ast.Match:
		scrut, err := c.optionExpr(sc, n.Scrutinee)
		if err != nil {
			return nil, err
		}
		inner, slot, err := sc.bind(n.Binder, false)
		if err != nil {
			return nil, err
		}
		someArm, err := c.contains(inner, n.SomeArm)
		if err != nil {
			return nil, err
		}
		noneArm, err := c.contains(sc, n.NoneArm)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (bool, error) {
			opt, err := scrut(r)
			if err != nil {
				return false, err
			}
			if opt.Present {
				r.slots[slot] = opt.Value
				return someArm(r)
			}
			return noneArm(r)
		}, nil
	case *ast.Find:
		// The principal-model test folds to a constant compare; a Find whose
		// clause values are all literals shares one precomputed filter plan
		// and memoizes its membership verdict per frame, so sibling policies
		// under one strip batch (email and isAdmin both asking "is the
		// principal an admin?") probe the store once.
		model := n.Model
		filters, plan, err := c.filters(sc, n)
		if err != nil {
			return nil, err
		}
		if plan != nil {
			site := c.staticSite(model, plan)
			return func(r *rt) (bool, error) {
				if r.p.Model != model {
					return false, nil
				}
				for i := 0; i < r.nprobes; i++ {
					if r.probes[i].site == site {
						return r.probes[i].verdict, nil
					}
				}
				doc, ok := site.coll(r.db).Get(r.p.ID)
				v := ok && store.MatchAll(doc, plan)
				if r.nprobes < maxProbes {
					r.probes[r.nprobes] = probeEntry{site: site, verdict: v}
					r.nprobes++
				}
				return v, nil
			}, nil
		}
		site := &collSite{model: model}
		return func(r *rt) (bool, error) {
			if r.p.Model != model {
				return false, nil
			}
			fs, err := filters(r)
			if err != nil {
				return false, err
			}
			doc, ok := site.coll(r.db).Get(r.p.ID)
			return ok && store.MatchAll(doc, fs), nil
		}, nil
	case *ast.Map:
		recv, err := c.instanceSet(sc, n.Recv)
		if err != nil {
			return nil, err
		}
		inner, slot, bind := sc, -1, n.Fn.Param != "_"
		if bind {
			inner, slot, err = sc.bind(n.Fn.Param, true)
			if err != nil {
				return nil, err
			}
		}
		body, err := c.principalEq(inner, n.Fn.Body)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (bool, error) {
			elems, err := recv(r)
			if err != nil {
				return false, err
			}
			for _, inst := range elems {
				if bind {
					r.islots[slot] = inst
				}
				ok, err := body(r)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
			return false, nil
		}, nil
	case *ast.FlatMap:
		recv, err := c.instanceSet(sc, n.Recv)
		if err != nil {
			return nil, err
		}
		inner, slot, bind := sc, -1, n.Fn.Param != "_"
		if bind {
			inner, slot, err = sc.bind(n.Fn.Param, true)
			if err != nil {
				return nil, err
			}
		}
		body, err := c.contains(inner, n.Fn.Body)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (bool, error) {
			elems, err := recv(r)
			if err != nil {
				return false, err
			}
			for _, inst := range elems {
				if bind {
					r.islots[slot] = inst
				}
				ok, err := body(r)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
			return false, nil
		}, nil
	case *ast.FieldAccess:
		// Set field: check the stored set for the principal's id. When the
		// receiver is the policy parameter (slot 0: fixed per frame target),
		// the verdict joins the per-frame probe memo — pronouns and followers
		// both asking "does the principal follow the target?" scan the set
		// once per strip batch.
		if v0, isVar := n.Recv.(*ast.Var); isVar {
			if slot, isInst, bound := sc.lookup(v0.Name); bound && isInst && slot == 0 {
				field := n.Field
				site := c.fieldProbeSite(field)
				return func(r *rt) (bool, error) {
					for i := 0; i < r.nprobes; i++ {
						if r.probes[i].site == site {
							return r.probes[i].verdict, nil
						}
					}
					set, isSet := r.islots[0].doc[field].([]store.Value)
					if !isSet {
						return false, fmt.Errorf("eval: %s is not a set field", field)
					}
					v := false
					if r.p.Model != "" {
						for _, el := range set {
							if id, ok := el.(store.ID); ok && id == r.p.ID {
								v = true
								break
							}
						}
					}
					if r.nprobes < maxProbes {
						r.probes[r.nprobes] = probeEntry{site: site, verdict: v}
						r.nprobes++
					}
					return v, nil
				}, nil
			}
		}
		ef, err := c.expr(sc, x)
		if err != nil {
			return nil, err
		}
		field := n.Field
		return func(r *rt) (bool, error) {
			v, err := ef(r)
			if err != nil {
				return false, err
			}
			set, ok := v.([]store.Value)
			if !ok {
				return false, fmt.Errorf("eval: %s is not a set field", field)
			}
			if r.p.Model == "" {
				return false, nil
			}
			for _, el := range set {
				if id, ok := el.(store.ID); ok && id == r.p.ID {
					return true, nil
				}
			}
			return false, nil
		}, nil
	}
	return errBool(fmt.Errorf("eval: %T is not a set expression", x)), nil
}

// instanceVar returns a direct typed-slot accessor when x is a variable
// bound to an instance slot, letting callers skip the boxed round-trip
// through the generic expr path.
func (c *compiler) instanceVar(sc *scope, x ast.Expr) (func(r *rt) instance, bool) {
	v, ok := x.(*ast.Var)
	if !ok {
		return nil, false
	}
	slot, isInst, bound := sc.lookup(v.Name)
	if !bound || !isInst {
		return nil, false
	}
	return func(r *rt) instance { return r.islots[slot] }, true
}

// principalEq compiles "principal equals the value of x". Static principal
// references and binder references are resolved at compile time.
func (c *compiler) principalEq(sc *scope, x ast.Expr) (boolFn, error) {
	if v, ok := x.(*ast.Var); ok {
		if slot, isInst, bound := sc.lookup(v.Name); bound {
			if isInst {
				// The slot holds a model instance by construction: compare
				// identity without the interpreter's value dispatch.
				return func(r *rt) (bool, error) {
					inst := &r.islots[slot]
					return r.p.Static == "" && r.p.Model == inst.model && r.p.ID == inst.id, nil
				}, nil
			}
			return func(r *rt) (bool, error) {
				return principalEqValue(r, r.slots[slot])
			}, nil
		}
		if c.schema.HasStatic(v.Name) {
			// Constant-folded static principal equality.
			name := v.Name
			return func(r *rt) (bool, error) {
				return r.p.Static == name, nil
			}, nil
		}
		return errBool(fmt.Errorf("eval: unbound variable %s", v.Name)), nil
	}
	ef, err := c.expr(sc, x)
	if err != nil {
		return nil, err
	}
	return func(r *rt) (bool, error) {
		v, err := ef(r)
		if err != nil {
			return false, err
		}
		return principalEqValue(r, v)
	}, nil
}

// principalEqValue mirrors Evaluator.principalEqValue's runtime dispatch.
func principalEqValue(r *rt, v any) (bool, error) {
	switch val := v.(type) {
	case staticRef:
		return r.p.Static == string(val), nil
	case store.ID:
		return r.p.Static == "" && r.p.ID == val, nil
	case instance:
		return r.p.Static == "" && r.p.Model == val.model && r.p.ID == val.doc.ID(), nil
	}
	return false, fmt.Errorf("eval: %T cannot act as a principal", v)
}

// filters compiles a Find's clause list. When every clause value is a
// literal the full []store.Filter is built once at compile time, shared by
// all evaluations (callers only read it), and also returned directly
// (non-nil), marking the plan static: callers may then memoize probe
// verdicts per frame.
func (c *compiler) filters(sc *scope, n *ast.Find) (filtersFn, []store.Filter, error) {
	type clause struct {
		field string
		op    store.FilterOp
		fn    exprFn
	}
	static := make([]store.Filter, 0, len(n.Clauses))
	clauses := make([]clause, 0, len(n.Clauses))
	allConst := true
	for _, cl := range n.Clauses {
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
		if v, ok := literalValue(cl.Value); ok {
			static = append(static, store.Filter{Field: cl.Field, Op: op, Value: toStoreValue(v)})
			clauses = append(clauses, clause{field: cl.Field, op: op})
			continue
		}
		allConst = false
		fn, err := c.expr(sc, cl.Value)
		if err != nil {
			return nil, nil, err
		}
		static = append(static, store.Filter{Field: cl.Field, Op: op})
		clauses = append(clauses, clause{field: cl.Field, op: op, fn: fn})
	}
	if allConst {
		plan := static
		return func(*rt) ([]store.Filter, error) { return plan, nil }, plan, nil
	}
	plan := static
	return func(r *rt) ([]store.Filter, error) {
		out := make([]store.Filter, len(plan))
		copy(out, plan)
		for i, cl := range clauses {
			if cl.fn == nil {
				continue
			}
			v, err := cl.fn(r)
			if err != nil {
				return nil, err
			}
			out[i].Value = toStoreValue(v)
		}
		return out, nil
	}, nil, nil
}

// literalValue extracts a compile-time constant from a literal node.
func literalValue(x ast.Expr) (any, bool) {
	switch n := x.(type) {
	case *ast.StringLit:
		return n.Value, true
	case *ast.IntLit:
		return n.Value, true
	case *ast.FloatLit:
		return n.Value, true
	case *ast.BoolLit:
		return n.Value, true
	case *ast.DateTimeLit:
		return n.Unix, true
	}
	return nil, false
}

// instanceSet compiles an expression materialising instances, mirroring
// Evaluator.evalInstanceSet.
func (c *compiler) instanceSet(sc *scope, x ast.Expr) (instSetFn, error) {
	switch n := x.(type) {
	case *ast.Find:
		model := n.Model
		filters, _, err := c.filters(sc, n)
		if err != nil {
			return nil, err
		}
		site := &collSite{model: model}
		return func(r *rt) ([]instance, error) {
			fs, err := filters(r)
			if err != nil {
				return nil, err
			}
			docs := site.coll(r.db).Find(fs...)
			out := make([]instance, len(docs))
			for i, d := range docs {
				out[i] = instance{model: model, doc: d, id: d.ID()}
			}
			return out, nil
		}, nil
	case *ast.FieldAccess:
		// Set field of ids; the element model is resolved at compile time.
		ef, err := c.expr(sc, x)
		if err != nil {
			return nil, err
		}
		field := n.Field
		elemModel := ""
		if t := n.Type(); t.Kind == ast.TSet && t.Elem != nil {
			elemModel = t.Elem.Model
		}
		site := &collSite{model: elemModel}
		return func(r *rt) ([]instance, error) {
			v, err := ef(r)
			if err != nil {
				return nil, err
			}
			set, ok := v.([]store.Value)
			if !ok {
				return nil, fmt.Errorf("eval: %s is not a set", field)
			}
			var out []instance
			for _, el := range set {
				id, ok := el.(store.ID)
				if !ok {
					continue
				}
				doc, ok := site.coll(r.db).Get(id)
				if !ok {
					continue // dangling reference
				}
				out = append(out, instance{model: elemModel, doc: doc, id: id})
			}
			return out, nil
		}, nil
	case *ast.Binary:
		if n.Op == ast.OpAdd {
			l, err := c.instanceSet(sc, n.Left)
			if err != nil {
				return nil, err
			}
			rr, err := c.instanceSet(sc, n.Right)
			if err != nil {
				return nil, err
			}
			return func(r *rt) ([]instance, error) {
				ls, err := l(r)
				if err != nil {
					return nil, err
				}
				rs, err := rr(r)
				if err != nil {
					return nil, err
				}
				return append(ls, rs...), nil
			}, nil
		}
	case *ast.SetLit:
		type elem struct {
			fn    exprFn
			model string
		}
		elems := make([]elem, len(n.Elems))
		for i, el := range n.Elems {
			fn, err := c.expr(sc, el)
			if err != nil {
				return nil, err
			}
			elems[i] = elem{fn: fn, model: el.Type().Model}
		}
		return func(r *rt) ([]instance, error) {
			var out []instance
			for _, el := range elems {
				v, err := el.fn(r)
				if err != nil {
					return nil, err
				}
				inst, err := r.toInstance(v, el.model)
				if err != nil {
					return nil, err
				}
				out = append(out, inst)
			}
			return out, nil
		}, nil
	}
	return func(*rt) ([]instance, error) {
		return nil, fmt.Errorf("eval: cannot materialise %T as an instance set", x)
	}, nil
}

// boolExpr compiles x and asserts a Bool result (interpreter's evalBool).
func (c *compiler) boolExpr(sc *scope, x ast.Expr) (boolFn, error) {
	ef, err := c.expr(sc, x)
	if err != nil {
		return nil, err
	}
	notBool := fmt.Errorf("eval: %s is not a Bool", x)
	return func(r *rt) (bool, error) {
		v, err := ef(r)
		if err != nil {
			return false, err
		}
		b, ok := v.(bool)
		if !ok {
			return false, notBool
		}
		return b, nil
	}, nil
}

// optionExpr compiles x and asserts an Option result (evalOption).
func (c *compiler) optionExpr(sc *scope, x ast.Expr) (func(r *rt) (store.Optional, error), error) {
	ef, err := c.expr(sc, x)
	if err != nil {
		return nil, err
	}
	notOpt := fmt.Errorf("eval: %s is not an Option", x)
	return func(r *rt) (store.Optional, error) {
		v, err := ef(r)
		if err != nil {
			return store.Optional{}, err
		}
		o, ok := v.(store.Optional)
		if !ok {
			return store.Optional{}, notOpt
		}
		return o, nil
	}, nil
}

// expr compiles a scalar or Option expression, mirroring
// Evaluator.evalExpr's value domain exactly.
func (c *compiler) expr(sc *scope, x ast.Expr) (exprFn, error) {
	switch n := x.(type) {
	case *ast.StringLit:
		v := n.Value
		return func(*rt) (any, error) { return v, nil }, nil
	case *ast.IntLit:
		v := n.Value
		return func(*rt) (any, error) { return v, nil }, nil
	case *ast.FloatLit:
		v := n.Value
		return func(*rt) (any, error) { return v, nil }, nil
	case *ast.BoolLit:
		v := n.Value
		return func(*rt) (any, error) { return v, nil }, nil
	case *ast.DateTimeLit:
		v := n.Unix
		return func(*rt) (any, error) { return v, nil }, nil
	case *ast.Now:
		return func(r *rt) (any, error) {
			if r.fixedNow != 0 {
				return r.fixedNow, nil
			}
			return time.Now().Unix(), nil
		}, nil
	case *ast.Var:
		if slot, isInst, bound := sc.lookup(n.Name); bound {
			if isInst {
				return func(r *rt) (any, error) { return r.islots[slot], nil }, nil
			}
			return func(r *rt) (any, error) { return r.slots[slot], nil }, nil
		}
		if c.schema.HasStatic(n.Name) {
			ref := staticRef(n.Name)
			return func(*rt) (any, error) { return ref, nil }, nil
		}
		return errExpr(fmt.Errorf("eval: unbound variable %s", n.Name)), nil
	case *ast.Binary:
		return c.binary(sc, n)
	case *ast.If:
		cond, err := c.boolExpr(sc, n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.expr(sc, n.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.expr(sc, n.Else)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (any, error) {
			ok, err := cond(r)
			if err != nil {
				return nil, err
			}
			if ok {
				return then(r)
			}
			return els(r)
		}, nil
	case *ast.Match:
		scrut, err := c.optionExpr(sc, n.Scrutinee)
		if err != nil {
			return nil, err
		}
		inner, slot, err := sc.bind(n.Binder, false)
		if err != nil {
			return nil, err
		}
		someArm, err := c.expr(inner, n.SomeArm)
		if err != nil {
			return nil, err
		}
		noneArm, err := c.expr(sc, n.NoneArm)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (any, error) {
			opt, err := scrut(r)
			if err != nil {
				return nil, err
			}
			if opt.Present {
				r.slots[slot] = opt.Value
				return someArm(r)
			}
			return noneArm(r)
		}, nil
	case *ast.NoneLit:
		none := store.None()
		return func(*rt) (any, error) { return none, nil }, nil
	case *ast.SomeLit:
		arg, err := c.expr(sc, n.Arg)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (any, error) {
			v, err := arg(r)
			if err != nil {
				return nil, err
			}
			return store.Some(toStoreValue(v)), nil
		}, nil
	case *ast.FieldAccess:
		field := n.Field
		recvModel := n.Recv.Type().Model
		if iv, ok := c.instanceVar(sc, n.Recv); ok {
			// Receiver is a binder variable: read the typed slot directly,
			// skipping the boxed round-trip through the generic expr path.
			if field == schema.IDFieldName {
				return func(r *rt) (any, error) { return iv(r).id, nil }, nil
			}
			return func(r *rt) (any, error) {
				inst := iv(r)
				fv, ok := inst.doc[field]
				if !ok {
					return nil, fmt.Errorf("eval: document %v has no field %s", inst.id, field)
				}
				return fv, nil
			}, nil
		}
		recv, err := c.expr(sc, n.Recv)
		if err != nil {
			return nil, err
		}
		if field == schema.IDFieldName {
			return func(r *rt) (any, error) {
				v, err := recv(r)
				if err != nil {
					return nil, err
				}
				inst, err := r.toInstance(v, recvModel)
				if err != nil {
					return nil, err
				}
				return inst.id, nil
			}, nil
		}
		return func(r *rt) (any, error) {
			v, err := recv(r)
			if err != nil {
				return nil, err
			}
			inst, err := r.toInstance(v, recvModel)
			if err != nil {
				return nil, err
			}
			fv, ok := inst.doc[field]
			if !ok {
				return nil, fmt.Errorf("eval: document %v has no field %s", inst.id, field)
			}
			return fv, nil
		}, nil
	case *ast.ById:
		arg, err := c.expr(sc, n.Arg)
		if err != nil {
			return nil, err
		}
		model := n.Model
		site := &collSite{model: model}
		return func(r *rt) (any, error) {
			v, err := arg(r)
			if err != nil {
				return nil, err
			}
			id, ok := v.(store.ID)
			if !ok {
				if inst, isInst := v.(instance); isInst {
					id = inst.id
				} else {
					return nil, fmt.Errorf("eval: ById argument is %T, not an id", v)
				}
			}
			doc, ok := site.coll(r.db).Get(id)
			if !ok {
				return nil, fmt.Errorf("eval: %s::ById(%v): no such document", model, id)
			}
			return instance{model: model, doc: doc, id: id}, nil
		}, nil
	case *ast.Find:
		model := n.Model
		filters, _, err := c.filters(sc, n)
		if err != nil {
			return nil, err
		}
		site := &collSite{model: model}
		return func(r *rt) (any, error) {
			fs, err := filters(r)
			if err != nil {
				return nil, err
			}
			docs := site.coll(r.db).Find(fs...)
			out := make([]store.Value, len(docs))
			for i, d := range docs {
				out[i] = d.ID()
			}
			return out, nil
		}, nil
	case *ast.Map:
		recv, err := c.instanceSet(sc, n.Recv)
		if err != nil {
			return nil, err
		}
		inner, slot, bind := sc, -1, n.Fn.Param != "_"
		if bind {
			inner, slot, err = sc.bind(n.Fn.Param, true)
			if err != nil {
				return nil, err
			}
		}
		body, err := c.expr(inner, n.Fn.Body)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (any, error) {
			elems, err := recv(r)
			if err != nil {
				return nil, err
			}
			out := make([]store.Value, 0, len(elems))
			for _, inst := range elems {
				if bind {
					r.islots[slot] = inst
				}
				v, err := body(r)
				if err != nil {
					return nil, err
				}
				out = append(out, toStoreValue(v))
			}
			return out, nil
		}, nil
	case *ast.FlatMap:
		recv, err := c.instanceSet(sc, n.Recv)
		if err != nil {
			return nil, err
		}
		inner, slot, bind := sc, -1, n.Fn.Param != "_"
		if bind {
			inner, slot, err = sc.bind(n.Fn.Param, true)
			if err != nil {
				return nil, err
			}
		}
		body, err := c.expr(inner, n.Fn.Body)
		if err != nil {
			return nil, err
		}
		return func(r *rt) (any, error) {
			elems, err := recv(r)
			if err != nil {
				return nil, err
			}
			var out []store.Value
			for _, inst := range elems {
				if bind {
					r.islots[slot] = inst
				}
				v, err := body(r)
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
		}, nil
	case *ast.SetLit:
		fns := make([]exprFn, len(n.Elems))
		for i, el := range n.Elems {
			fn, err := c.expr(sc, el)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		return func(r *rt) (any, error) {
			out := make([]store.Value, 0, len(fns))
			for _, fn := range fns {
				v, err := fn(r)
				if err != nil {
					return nil, err
				}
				out = append(out, toStoreValue(v))
			}
			return out, nil
		}, nil
	case *ast.Public:
		return errExpr(fmt.Errorf("eval: public cannot be materialised; use Allowed")), nil
	}
	return errExpr(fmt.Errorf("eval: unhandled expression %T", x)), nil
}

// binary compiles a binary operation, mirroring Evaluator.evalBinary's
// runtime dispatch with the operator resolved at compile time.
func (c *compiler) binary(sc *scope, n *ast.Binary) (exprFn, error) {
	l, err := c.expr(sc, n.Left)
	if err != nil {
		return nil, err
	}
	rr, err := c.expr(sc, n.Right)
	if err != nil {
		return nil, err
	}
	// Set union/subtraction at value level.
	if n.Type().Kind == ast.TSet {
		union := n.Op == ast.OpAdd
		return func(r *rt) (any, error) {
			lv, err := l(r)
			if err != nil {
				return nil, err
			}
			rv, err := rr(r)
			if err != nil {
				return nil, err
			}
			ls, lok := lv.([]store.Value)
			rs, rok := rv.([]store.Value)
			if !lok || !rok {
				return nil, fmt.Errorf("eval: set operation on non-sets")
			}
			if union {
				return append(append([]store.Value{}, ls...), rs...), nil
			}
			var out []store.Value
			for _, le := range ls {
				keep := true
				for _, re := range rs {
					if eval.ValuesEqual(le, re) {
						keep = false
						break
					}
				}
				if keep {
					out = append(out, le)
				}
			}
			return out, nil
		}, nil
	}

	op := n.Op
	opErr := func(lv, rv any) error {
		return fmt.Errorf("eval: operator %s on %T and %T", op, lv, rv)
	}
	switch op {
	case ast.OpEq, ast.OpNe:
		neg := op == ast.OpNe
		return func(r *rt) (any, error) {
			lv, err := l(r)
			if err != nil {
				return nil, err
			}
			rv, err := rr(r)
			if err != nil {
				return nil, err
			}
			eq := eval.ValuesEqual(toStoreValue(lv), toStoreValue(rv))
			return eq != neg, nil
		}, nil
	case ast.OpAdd:
		return func(r *rt) (any, error) {
			lv, err := l(r)
			if err != nil {
				return nil, err
			}
			rv, err := rr(r)
			if err != nil {
				return nil, err
			}
			switch x := lv.(type) {
			case string:
				return x + rv.(string), nil
			case int64:
				return x + rv.(int64), nil
			case float64:
				return x + rv.(float64), nil
			}
			return nil, opErr(lv, rv)
		}, nil
	case ast.OpSub:
		return func(r *rt) (any, error) {
			lv, err := l(r)
			if err != nil {
				return nil, err
			}
			rv, err := rr(r)
			if err != nil {
				return nil, err
			}
			switch x := lv.(type) {
			case int64:
				return x - rv.(int64), nil
			case float64:
				return x - rv.(float64), nil
			}
			return nil, opErr(lv, rv)
		}, nil
	default:
		return func(r *rt) (any, error) {
			lv, err := l(r)
			if err != nil {
				return nil, err
			}
			rv, err := rr(r)
			if err != nil {
				return nil, err
			}
			cmp, ok := eval.CompareNumeric(lv, rv)
			if !ok {
				return nil, fmt.Errorf("eval: cannot compare %T and %T", lv, rv)
			}
			switch op {
			case ast.OpLt:
				return cmp < 0, nil
			case ast.OpLe:
				return cmp <= 0, nil
			case ast.OpGt:
				return cmp > 0, nil
			case ast.OpGe:
				return cmp >= 0, nil
			}
			return nil, opErr(lv, rv)
		}, nil
	}
}
