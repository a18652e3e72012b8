// Package lower translates Scooter policies into solver terms, implementing
// the paper's §4: the strictness property is negated into a leakage formula
// (Eq. 2), set expressions are eliminated by distributing the membership
// operator, set fields become join-table predicates, instance ids use the
// id-as-identity encoding, and DateTime/I64/F64/String/Option values map to
// Int/Int/Real/uninterpreted-with-distinct-literals/(isSome,val) pairs.
//
// Principals are handled by case analysis instead of a union sort: the
// verifier builds one query per principal kind (each @principal model, and
// each static principal), which both keeps the logic quantifier-free and
// yields directly printable counterexamples.
package lower

import (
	"fmt"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/schema"
	"scooter/internal/smt/term"
)

// PrincipalKind identifies the case a query is built for: a dynamic
// principal drawn from a model, or a specific static principal.
type PrincipalKind struct {
	Model  string // non-empty for dynamic principals
	Static string // non-empty for static principals
}

func (k PrincipalKind) String() string {
	if k.Model != "" {
		return k.Model
	}
	return k.Static
}

// Query is a lowered leakage query plus the metadata needed to render a
// counterexample from a model.
type Query struct {
	B       *term.Builder
	Formula term.T

	// Kind is the principal case this query covers.
	Kind PrincipalKind
	// PrincipalTerm is the candidate principal u (an instance term for
	// dynamic kinds, the static constant otherwise).
	PrincipalTerm term.T
	// InstanceModel/InstanceTerm identify the operation target i.
	InstanceModel string
	InstanceTerm  term.T

	// Instances lists, per model, the instance terms the query mentions
	// (target, candidate principal, skolems, ById chains).
	Instances map[string][]term.T
	// StringLits maps interned string literal values to their constants.
	StringLits map[string]term.T
	// Statics maps static principal names to their constants.
	Statics map[string]term.T

	// Incomplete is set when the translation used bounded instantiation
	// for a universally quantified map/flat_map (paper §6.1: features that
	// can defeat the solver); a counterexample may then be spurious.
	Incomplete bool
}

// Context carries shared lowering state across the two policies of one
// strictness query.
type Context struct {
	B      *term.Builder
	Schema *schema.Schema
	Defs   *equiv.Defs

	fresh      int
	strings    map[string]term.T
	statics    map[string]term.T
	instances  map[string][]term.T
	side       []term.T
	incomplete bool
	nowTerm    term.T
}

// NewContext returns a lowering context over a fresh term builder.
func NewContext(s *schema.Schema, defs *equiv.Defs) *Context {
	b := term.NewBuilder()
	return &Context{
		B:         b,
		Schema:    s,
		Defs:      defs,
		strings:   map[string]term.T{},
		statics:   map[string]term.T{},
		instances: map[string][]term.T{},
		nowTerm:   b.Const("$now", term.Int),
	}
}

// Error is a lowering failure (e.g. unsupported construct).
type Error struct{ Msg string }

func (e *Error) Error() string { return e.Msg }

func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// ---- sorts and constants ----

func modelSort(model string) term.Sort { return term.Uninterp("$M_" + model) }

var (
	stringSort = term.Uninterp("$String")
	staticSort = term.Uninterp("$Static")
)

// SortForType maps a Scooter scalar type to a solver sort. It is exported
// for the counterexample renderer, which rebuilds field applications to
// query the model.
func SortForType(t ast.Type) (term.Sort, error) {
	return sortForType(t)
}

// sortForType maps a Scooter scalar type to a solver sort.
func sortForType(t ast.Type) (term.Sort, error) {
	switch t.Kind {
	case ast.TBool:
		return term.Bool, nil
	case ast.TI64, ast.TDateTime:
		return term.Int, nil
	case ast.TF64:
		return term.Real, nil
	case ast.TString:
		return stringSort, nil
	case ast.TId, ast.TModel:
		return modelSort(t.Model), nil
	default:
		return term.Sort{}, errf("type %s has no scalar solver sort", t)
	}
}

// freshInstance allocates a new instance constant of the given model.
func (c *Context) freshInstance(model, hint string) term.T {
	c.fresh++
	t := c.B.Const(fmt.Sprintf("$%s_%s%d", model, hint, c.fresh), modelSort(model))
	c.instances[model] = append(c.instances[model], t)
	return t
}

// stringLit interns a string literal constant.
func (c *Context) stringLit(v string) term.T {
	if t, ok := c.strings[v]; ok {
		return t
	}
	c.fresh++
	t := c.B.Const(fmt.Sprintf("$str%d", c.fresh), stringSort)
	c.strings[v] = t
	return t
}

// static interns a static principal constant.
func (c *Context) static(name string) term.T {
	if t, ok := c.statics[name]; ok {
		return t
	}
	t := c.B.Const("$static_"+name, staticSort)
	c.statics[name] = t
	return t
}

// fieldApp builds the uninterpreted application for model.field applied to
// an instance term, expanding prior definitions when available. The
// implicit id field is the identity (paper §4, "Translating Instances and
// IDs").
func (c *Context) fieldApp(model, field string, inst term.T) (term.T, error) {
	if field == schema.IDFieldName {
		return inst, nil
	}
	m := c.Schema.Model(model)
	if m == nil {
		return term.NilTerm, errf("unknown model %s", model)
	}
	f := m.Field(field)
	if f == nil {
		return term.NilTerm, errf("model %s has no field %s", model, field)
	}
	if def, ok := c.Defs.Lookup(model, field); ok && isScalar(f.Type) {
		// Expand the definitional equality from the AddField initialiser.
		defEnv := newEnv()
		if def.Param != "_" {
			defEnv = defEnv.bind(def.Param, value{scalar: inst, typ: ast.ModelType(model)})
		}
		v, err := c.lowerScalar(defEnv, def.Body)
		if err != nil {
			return term.NilTerm, err
		}
		return v, nil
	}
	sort, err := sortForType(f.Type)
	if err != nil {
		return term.NilTerm, err
	}
	return c.B.App(fmt.Sprintf("%s.%s", model, field), sort, inst), nil
}

// optionApps returns the (isSome, val) pair of apps for an Option field.
func (c *Context) optionApps(model, field string, elem ast.Type, inst term.T) (term.T, term.T, error) {
	sort, err := sortForType(elem)
	if err != nil {
		return term.NilTerm, term.NilTerm, err
	}
	isSome := c.B.App(fmt.Sprintf("%s.%s$some", model, field), term.Bool, inst)
	val := c.B.App(fmt.Sprintf("%s.%s$val", model, field), sort, inst)
	return isSome, val, nil
}

// memberPred returns the join-table membership predicate elem ∈ inst.field
// for a set field (paper §4, "Translating Set Fields").
func (c *Context) memberPred(model, field string, elem, inst term.T) term.T {
	return c.B.App(fmt.Sprintf("%s.%s$member", model, field), term.Bool, elem, inst)
}

func isScalar(t ast.Type) bool {
	switch t.Kind {
	case ast.TSet, ast.TOption:
		return false
	}
	return true
}

// sideConditions returns the accumulated background assertions: pairwise
// distinctness of string literals and of static principals.
func (c *Context) sideConditions() []term.T {
	out := append([]term.T(nil), c.side...)
	if len(c.strings) > 1 {
		lits := make([]term.T, 0, len(c.strings))
		for _, t := range c.strings {
			lits = append(lits, t)
		}
		out = append(out, c.B.Distinct(lits...))
	}
	if len(c.statics) > 1 {
		sts := make([]term.T, 0, len(c.statics))
		for _, t := range c.statics {
			sts = append(sts, t)
		}
		out = append(out, c.B.Distinct(sts...))
	}
	return out
}

// PrincipalKinds enumerates the principal cases for a schema.
func PrincipalKinds(s *schema.Schema) []PrincipalKind {
	var kinds []PrincipalKind
	for _, m := range s.PrincipalModels() {
		kinds = append(kinds, PrincipalKind{Model: m.Name})
	}
	for _, st := range s.Statics {
		kinds = append(kinds, PrincipalKind{Static: st})
	}
	return kinds
}

// BuildLeakageQuery lowers the leakage formula for one principal kind:
//
//	∃ db, i, u_kind .  u ∈ p_new(db, i)  ∧  ¬(u ∈ p_old(db, i))
//
// The result is satisfiable exactly when the new policy admits a principal
// of this kind that the old policy rejects.
func BuildLeakageQuery(c *Context, model string, pOld, pNew ast.Policy, kind PrincipalKind) (*Query, error) {
	return BuildCrossLeakageQuery(c, model, pNew, model, pOld, kind)
}

// BuildCrossLeakageQuery generalises the leakage formula to policies on
// different models, as needed for cross-model dataflow checks: the new
// (destination) policy is evaluated on an instance of its model, the old
// (source) policy on an instance of its own model; the instances coincide
// when the models do.
func BuildCrossLeakageQuery(c *Context, newModel string, pNew ast.Policy, oldModel string, pOld ast.Policy, kind PrincipalKind) (*Query, error) {
	q := &Query{
		B:             c.B,
		Kind:          kind,
		InstanceModel: newModel,
	}
	q.InstanceTerm = c.freshInstance(newModel, "i")
	oldInstance := q.InstanceTerm
	if oldModel != newModel {
		oldInstance = c.freshInstance(oldModel, "i")
	}

	if kind.Model != "" {
		q.PrincipalTerm = c.freshInstance(kind.Model, "u")
	} else {
		q.PrincipalTerm = c.static(kind.Static)
	}
	u := principal{kind: kind, term: q.PrincipalTerm}

	inNew, err := c.memberPolicy(u, newModel, q.InstanceTerm, pNew, true)
	if err != nil {
		return nil, err
	}
	inOld, err := c.memberPolicy(u, oldModel, oldInstance, pOld, false)
	if err != nil {
		return nil, err
	}
	conj := []term.T{inNew, c.B.Not(inOld)}
	conj = append(conj, c.sideConditions()...)
	q.Formula = c.B.And(conj...)
	q.Instances = c.instances
	q.StringLits = c.strings
	q.Statics = c.statics
	q.Incomplete = c.incomplete
	return q, nil
}

// memberPolicy lowers u ∈ p(db, i) at the given polarity.
func (c *Context) memberPolicy(u principal, model string, inst term.T, p ast.Policy, pos bool) (term.T, error) {
	switch p.Kind {
	case ast.PolicyPublic:
		return c.B.True(), nil
	case ast.PolicyNone:
		return c.B.False(), nil
	}
	fn := p.Fn
	e := newEnv()
	if fn.Param != "_" {
		e = e.bind(fn.Param, value{scalar: inst, typ: ast.ModelType(model)})
	}
	return c.member(e, u, fn.Body, pos)
}
