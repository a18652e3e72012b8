package policyc

import (
	"sync"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// framePool recycles evaluation frames: a frame escapes into the policy's
// closure chain, so without pooling every decision would heap-allocate
// ~400 bytes. Frames are not zeroed on return — slot reads are dominated
// by slot writes within a decision, so stale values are unobservable; the
// document references a pooled frame retains are bounded by the pool size.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Frame is a caller-owned evaluation frame for a batch of decisions
// against one target document — the ORM's strip loop binds the principal
// once and the document once, then runs every field's read policy without
// re-doing frame setup. A Frame is not safe for concurrent use: get one
// per batch from NewFrame and Release it when the batch is done.
type Frame struct {
	r  rt
	ev *eval.Evaluator
}

// NewFrame returns a frame acting for pr over ev's database. Call
// SetTarget before evaluating policies that bind their parameter.
func NewFrame(ev *eval.Evaluator, pr Principal) *Frame {
	f := framePool.Get().(*Frame)
	f.ev = ev
	f.r.db, f.r.fixedNow, f.r.p = ev.DB, ev.FixedNow, pr
	f.r.nprobes = 0 // probe verdicts are per-(principal, db): never cross frames
	return f
}

// SetTarget binds the document under decision (binder slot 0). The id is
// resolved here once for every policy of the batch, and the frame's probe
// memo is reset: target-dependent probe verdicts must not survive a
// retarget.
func (f *Frame) SetTarget(model string, doc store.Doc) {
	f.r.islots[0] = instance{model: model, doc: doc, id: doc.ID()}
	f.r.nprobes = 0
}

// Release returns the frame to the pool. The frame must not be used after.
func (f *Frame) Release() { framePool.Put(f) }

// EvalIn decides p for the frame's principal against the frame's target.
// SetTarget must have been called for policies that bind their parameter
// (and for interpreter fallbacks, which read the target document).
func (p *Policy) EvalIn(f *Frame) (bool, error) {
	switch p.kind {
	case kindPublic:
		return true, nil
	case kindNone:
		return false, nil
	case kindClosure:
		return p.fn(&f.r)
	}
	return f.ev.Allowed(f.r.p, p.model, f.r.islots[0].doc, p.src)
}

// policyKind classifies a compiled policy.
type policyKind int

const (
	kindPublic policyKind = iota
	kindNone
	kindClosure
	kindInterp // compiler declined; the interpreter evaluates Source
)

// Policy is one field or model policy, compiled (or marked for interpreter
// fallback). Policies are immutable after compilation and safe for
// concurrent evaluation: per-decision state lives in a private rt frame.
type Policy struct {
	model string
	src   ast.Policy
	kind  policyKind
	fn    boolFn
	bind  bool // policy parameter is named, not "_"
}

// Compiled reports whether evaluations bypass the interpreter.
func (p *Policy) Compiled() bool { return p.kind != kindInterp }

// Source returns the policy AST (for the interpreter oracle).
func (p *Policy) Source() ast.Policy { return p.src }

// Model returns the model the policy guards.
func (p *Policy) Model() string { return p.model }

// Eval decides whether principal pr passes the policy on doc. ev supplies
// the database (and the fallback interpreter); its FixedNow pin carries
// over so compiled and interpreted now() agree under a pinned clock.
func (p *Policy) Eval(ev *eval.Evaluator, pr Principal, doc store.Doc) (bool, error) {
	switch p.kind {
	case kindPublic:
		return true, nil
	case kindNone:
		return false, nil
	case kindClosure:
		f := NewFrame(ev, pr)
		if p.bind {
			f.SetTarget(p.model, doc)
		}
		ok, err := p.fn(&f.r)
		f.Release()
		return ok, err
	}
	return ev.Allowed(pr, p.model, doc, p.src)
}

// FieldPolicies pairs a field's compiled read and write policies.
type FieldPolicies struct {
	Read, Write *Policy
}

// ModelPolicies holds one model's compiled policies. fields parallels
// schema.Model.Fields so the ORM's strip loop indexes by position.
type ModelPolicies struct {
	Create, Delete *Policy
	fields         []*FieldPolicies
	byName         map[string]*FieldPolicies
}

// FieldAt returns the policies of the i-th declared field.
func (mp *ModelPolicies) FieldAt(i int) *FieldPolicies { return mp.fields[i] }

// Field returns the named field's policies, or nil.
func (mp *ModelPolicies) Field(name string) *FieldPolicies { return mp.byName[name] }

// Table holds the compiled policies of one schema. Each orm.Conn compiles
// and owns its own Table: a table's collection sites cache the database
// they last probed, so a table shared beyond its connection would keep
// that database reachable after the connection is gone.
type Table struct {
	models    map[string]*ModelPolicies
	compiled  int
	fallbacks int
}

// Counts reports how many policies compiled to closures (including the
// trivial public/none forms) and how many fell back to the interpreter.
func (t *Table) Counts() (compiled, fallbacks int) { return t.compiled, t.fallbacks }

// Model returns the compiled policies for a model, or nil.
func (t *Table) Model(name string) *ModelPolicies { return t.models[name] }

// Compile partially evaluates every policy of s into closures. Policies the
// compiler cannot handle are marked for interpreter fallback — Compile
// never fails.
func Compile(s *schema.Schema) *Table {
	t := &Table{models: make(map[string]*ModelPolicies, len(s.Models))}
	c := &compiler{schema: s}
	for _, m := range s.Models {
		mp := &ModelPolicies{
			Create: t.compilePolicy(c, m.Name, m.Create),
			Delete: t.compilePolicy(c, m.Name, m.Delete),
			fields: make([]*FieldPolicies, len(m.Fields)),
			byName: make(map[string]*FieldPolicies, len(m.Fields)),
		}
		for i, f := range m.Fields {
			fp := &FieldPolicies{
				Read:  t.compilePolicy(c, m.Name, f.Read),
				Write: t.compilePolicy(c, m.Name, f.Write),
			}
			mp.fields[i] = fp
			mp.byName[f.Name] = fp
		}
		t.models[m.Name] = mp
	}
	return t
}

// compilePolicy compiles one policy, falling back to the interpreter on a
// compile failure, and keeps the table's counts.
func (t *Table) compilePolicy(c *compiler, model string, pol ast.Policy) *Policy {
	p := &Policy{model: model, src: pol}
	switch pol.Kind {
	case ast.PolicyPublic:
		p.kind = kindPublic
		t.compiled++
		return p
	case ast.PolicyNone:
		p.kind = kindNone
		t.compiled++
		return p
	}
	fn := pol.Fn
	var sc *scope
	if fn.Param != "_" {
		var err error
		sc, _, err = (*scope)(nil).bind(fn.Param, true)
		if err != nil {
			p.kind = kindInterp
			t.fallbacks++
			return p
		}
		p.bind = true
	}
	body, err := c.contains(sc, fn.Body)
	if err != nil {
		p.kind = kindInterp
		t.fallbacks++
		return p
	}
	p.kind = kindClosure
	p.fn = body
	t.compiled++
	return p
}
