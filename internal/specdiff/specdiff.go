// Package specdiff compares two typed Scooter specifications and
// synthesizes a candidate migration script that transforms the first into
// the second. Synthesis is deliberately unsound on its own: the candidate
// always uses the strict command forms (UpdatePolicy, never WeakenPolicy),
// so every policy change arrives at Sidecar as a proof obligation —
// synthesis proposes, Sidecar disposes. Anything the differ cannot decide
// mechanically (a possible rename, a field with no synthesizable
// initialiser) is surfaced as an explicit Ambiguity instead of a guess.
//
// Commands are emitted in a fixed phase order so the script verifies and
// applies left to right: new static principals, new models (in dependency
// order), principal promotions, new fields, policy updates, field
// removals (referrers first), model deletions (referrers first), principal
// demotions, and finally static-principal removals. Policy updates run
// before removals so a policy that stopped referencing a doomed field is
// rewritten before the field goes away.
package specdiff

import (
	"fmt"
	"sort"
	"strings"

	"scooter/internal/ast"
	"scooter/internal/lexer"
	"scooter/internal/migrate"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/token"
)

// Kind classifies an ambiguity the differ reports instead of guessing.
type Kind int

const (
	// FieldRename: a removed and an added field on the same model share a
	// signature (type + policies). The differ emits RemoveField+AddField —
	// which loses the column's data — and reports the possible rename.
	FieldRename Kind = iota
	// ModelRename: a deleted and a created model share their full field
	// signature. Emitted as DeleteModel+CreateModel; data does not move.
	ModelRename
	// NoInitialiser: an added field's type has no synthesizable default
	// (e.g. Id(Model)); the AddField is omitted and Result.Complete is
	// false — a human must supply the initialiser.
	NoInitialiser
	// TypeChange: a field kept its name but changed type; expressed as
	// RemoveField+AddField, which loses the column's data.
	TypeChange
	// CreateCycle: new models reference each other cyclically, so no
	// creation order can type-check; the script will fail verification.
	CreateCycle
	// DemotionBlocked: a model loses principal status in the target spec,
	// but a field or policy kept from the old spec still references it —
	// RemovePrincipal conservatively refuses while any reference exists,
	// so the demotion is omitted and Result.Complete is false.
	DemotionBlocked
)

func (k Kind) String() string {
	switch k {
	case FieldRename:
		return "possible-field-rename"
	case ModelRename:
		return "possible-model-rename"
	case NoInitialiser:
		return "no-initialiser"
	case TypeChange:
		return "type-change"
	case CreateCycle:
		return "create-cycle"
	case DemotionBlocked:
		return "demotion-blocked"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Ambiguity is one decision the differ refused to make silently.
type Ambiguity struct {
	Kind   Kind
	Model  string
	Field  string // empty for model-level ambiguities
	Detail string
}

func (a Ambiguity) String() string {
	loc := a.Model
	if a.Field != "" {
		loc += "." + a.Field
	}
	return fmt.Sprintf("%s: %s: %s", a.Kind, loc, a.Detail)
}

// Result is a synthesized candidate migration.
type Result struct {
	// Commands is the candidate script in verification order.
	Commands []ast.Command
	// Ambiguities lists every decision that needs a human (or at least a
	// careful reviewer); renames and type changes still synthesize, a
	// missing initialiser does not.
	Ambiguities []Ambiguity
	// Complete is false when some difference could not be expressed (a
	// NoInitialiser ambiguity); applying the script then does NOT
	// converge to the target spec.
	Complete bool
}

// Script renders the candidate as Scooter_m source, ambiguity report
// included as comments so the generated file carries its own caveats.
func (r *Result) Script() string {
	var b strings.Builder
	b.WriteString("# Synthesized by scooter makemigration; verify with sidecar before applying.\n")
	for _, a := range r.Ambiguities {
		fmt.Fprintf(&b, "# AMBIGUITY %s\n", a)
	}
	if !r.Complete {
		b.WriteString("# INCOMPLETE: differences without a synthesizable initialiser were omitted.\n")
	}
	for _, cmd := range r.Commands {
		b.WriteString(cmd.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Diff computes the candidate migration from `from` to `to`. Both schemas
// must be type-checked. When the synthesized script is complete, Diff
// self-checks it: the script is structurally applied to `from` and the
// outcome must be canonically identical to `to`.
func Diff(from, to *schema.Schema) (*Result, error) {
	d := &differ{from: from, to: to, res: &Result{Complete: true}}
	d.statics()
	d.models()
	if d.res.Complete {
		applied, err := Apply(from, d.res.Commands)
		if err != nil {
			return nil, fmt.Errorf("specdiff: synthesized script does not apply: %w", err)
		}
		if got, want := Canonical(applied), Canonical(to); got != want {
			return nil, fmt.Errorf("specdiff: synthesized script does not converge to the target spec\n--- applied ---\n%s--- target ---\n%s", got, want)
		}
	}
	return d.res, nil
}

// Apply structurally executes a candidate script against a schema without
// strictness proofs — the preview path used by the differ's self-check and
// the round-trip property tests. Real application always goes through
// migrate.Verify / the workspace journal so Sidecar disposes first.
func Apply(from *schema.Schema, cmds []ast.Command) (*schema.Schema, error) {
	plan, err := migrate.Structural(from, &ast.MigrationScript{Commands: cmds})
	if err != nil {
		return nil, err
	}
	return plan.After, nil
}

// Canonical renders a schema with models, fields, and statics sorted by
// name — the order-insensitive identity the differ converges on. (A spec
// that differs only in declaration order needs no migration.)
func Canonical(s *schema.Schema) string {
	cp := s.Clone()
	sort.Strings(cp.Statics)
	sort.Slice(cp.Models, func(i, j int) bool { return cp.Models[i].Name < cp.Models[j].Name })
	for _, m := range cp.Models {
		sort.Slice(m.Fields, func(i, j int) bool { return m.Fields[i].Name < m.Fields[j].Name })
	}
	return specfmt.Format(cp)
}

type differ struct {
	from, to *schema.Schema
	res      *Result
}

func (d *differ) add(c ast.Command)     { d.res.Commands = append(d.res.Commands, c) }
func (d *differ) ambiguous(a Ambiguity) { d.res.Ambiguities = append(d.res.Ambiguities, a) }
func pos() token.Pos                    { return token.Pos{} }
func policyEq(a, b ast.Policy) bool     { return a.String() == b.String() }
func base() ast.CmdBase                 { return ast.NewCmdBase(pos()) }

// statics diffs the static-principal sets. Additions go first in the
// script; removals last (they must wait for policy updates that drop the
// final references).
func (d *differ) statics() {
	for _, name := range sortedStrings(d.to.Statics) {
		if !d.from.HasStatic(name) {
			d.add(&ast.AddStaticPrincipal{CmdBase: base(), PrincipalName: name})
		}
	}
}

func (d *differ) staticRemovals() []ast.Command {
	var out []ast.Command
	for _, name := range sortedStrings(d.from.Statics) {
		if !d.to.HasStatic(name) {
			out = append(out, &ast.RemoveStaticPrincipal{CmdBase: base(), PrincipalName: name})
		}
	}
	return out
}

// models drives the per-phase synthesis for model-level changes.
func (d *differ) models() {
	var created, deleted, shared []string
	for _, m := range d.to.Models {
		if d.from.Model(m.Name) == nil {
			created = append(created, m.Name)
		} else {
			shared = append(shared, m.Name)
		}
	}
	for _, m := range d.from.Models {
		if d.to.Model(m.Name) == nil {
			deleted = append(deleted, m.Name)
		}
	}
	sort.Strings(created)
	sort.Strings(deleted)
	sort.Strings(shared)

	// demoted: models losing principal status. Anything NEW that
	// references them (created models, added fields) must wait until
	// after the RemovePrincipal, which conservatively refuses while any
	// reference exists.
	demoted := map[string]bool{}
	for _, name := range shared {
		if d.from.Model(name).Principal && !d.to.Model(name).Principal {
			demoted[name] = true
		}
	}

	// Phase 2: create new models, referrers after their referents.
	// Creations referencing a demoted model — directly, or transitively
	// through another late creation — move past the demotion phase.
	lateCreate := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, name := range created {
			if lateCreate[name] {
				continue
			}
			m := d.to.Model(name)
			refs := d.modelRefs(m, created)
			late := false
			for _, r := range refs {
				if lateCreate[r] {
					late = true
				}
			}
			for dm := range demoted {
				if modelReferences(m, dm) {
					late = true
				}
			}
			if late {
				lateCreate[name] = true
				changed = true
			}
		}
	}
	var earlyCreated, lateCreated []string
	for _, name := range created {
		if lateCreate[name] {
			lateCreated = append(lateCreated, name)
		} else {
			earlyCreated = append(earlyCreated, name)
		}
	}

	d.detectModelRenames(deleted, created)

	createInOrder := func(names []string) {
		for _, name := range topoOrder(names, func(name string) []string {
			return d.modelRefs(d.to.Model(name), names)
		}, func(cycle []string) {
			d.ambiguous(Ambiguity{Kind: CreateCycle, Model: strings.Join(cycle, ", "),
				Detail: "new models reference each other; no creation order can type-check"})
		}) {
			d.add(&ast.CreateModel{CmdBase: base(), Model: declFromModel(d.to.Model(name))})
		}
	}
	createInOrder(earlyCreated)

	// Phase 3: principal promotions (before any policy can use the ids).
	for _, name := range shared {
		if !d.from.Model(name).Principal && d.to.Model(name).Principal {
			d.add(&ast.AddPrincipal{CmdBase: base(), ModelName: name})
		}
	}

	// Phase 4: new fields, with synthesized initialisers. AddFields that
	// re-use the name of a removed field (type changes) defer until after
	// the removals phase; AddFields referencing a demoted model (in their
	// type or policies) defer until after the demotion.
	type removal struct{ model, field string }
	var removals []removal
	var deferredAdds, lateAdds []ast.Command
	refsDemoted := func(f *schema.Field) bool {
		return typeRefsAny(f.Type, demoted) ||
			policyRefsAny(f.Read, demoted) || policyRefsAny(f.Write, demoted)
	}
	for _, name := range shared {
		fm, tm := d.from.Model(name), d.to.Model(name)
		var removedFields, addedFields []*schema.Field
		for _, f := range fm.Fields {
			tf := tm.Field(f.Name)
			if tf == nil {
				removedFields = append(removedFields, f)
			} else if !tf.Type.Equal(f.Type) {
				// A type change is remove+add under the hood.
				removedFields = append(removedFields, f)
				addedFields = append(addedFields, tf)
				d.ambiguous(Ambiguity{Kind: TypeChange, Model: name, Field: f.Name,
					Detail: fmt.Sprintf("type changed %s -> %s; expressed as RemoveField+AddField, existing values are lost", f.Type, tf.Type)})
			}
		}
		for _, f := range tm.Fields {
			if fm.Field(f.Name) == nil {
				addedFields = append(addedFields, f)
			}
		}
		d.detectFieldRenames(name, removedFields, addedFields)
		for _, f := range addedFields {
			init, ok := defaultInit(f.Type)
			if !ok {
				d.res.Complete = false
				d.ambiguous(Ambiguity{Kind: NoInitialiser, Model: name, Field: f.Name,
					Detail: fmt.Sprintf("no synthesizable default for type %s; write the AddField initialiser by hand", f.Type)})
				continue
			}
			cmd := &ast.AddField{CmdBase: base(), ModelName: name, Field: &ast.FieldDecl{
				Name: f.Name, Type: f.Type, Read: f.Read, Write: f.Write, Pos: pos(),
			}, Init: init}
			switch {
			case refsDemoted(f):
				lateAdds = append(lateAdds, cmd)
			case fm.Field(f.Name) != nil:
				// Type change: the old column must be removed before a
				// field of the same name can be re-added.
				deferredAdds = append(deferredAdds, cmd)
			default:
				d.add(cmd)
			}
		}
		for _, f := range removedFields {
			removals = append(removals, removal{name, f.Name})
		}
	}

	// Phase 5: policy updates, always the strict (provable) forms.
	for _, name := range shared {
		fm, tm := d.from.Model(name), d.to.Model(name)
		if !policyEq(fm.Create, tm.Create) {
			d.add(&ast.UpdatePolicy{CmdBase: base(), ModelName: name, Op: ast.OpCreate, NewPolicy: tm.Create})
		}
		if !policyEq(fm.Delete, tm.Delete) {
			d.add(&ast.UpdatePolicy{CmdBase: base(), ModelName: name, Op: ast.OpDelete, NewPolicy: tm.Delete})
		}
		for _, f := range fm.Fields {
			tf := tm.Field(f.Name)
			if tf == nil || !tf.Type.Equal(f.Type) {
				continue
			}
			var read, write *ast.Policy
			if !policyEq(f.Read, tf.Read) {
				p := tf.Read
				read = &p
			}
			if !policyEq(f.Write, tf.Write) {
				p := tf.Write
				write = &p
			}
			if read != nil || write != nil {
				d.add(&ast.UpdateFieldPolicy{CmdBase: base(), ModelName: name, FieldName: f.Name, Read: read, Write: write})
			}
		}
	}

	// Phase 6: field removals, referrers before referents so a removed
	// field whose policy still reads a sibling goes first.
	sort.Slice(removals, func(i, j int) bool {
		if removals[i].model != removals[j].model {
			return removals[i].model < removals[j].model
		}
		return removals[i].field < removals[j].field
	})
	removalNames := make([]string, len(removals))
	byKey := map[string]removal{}
	for i, r := range removals {
		key := r.model + "." + r.field
		removalNames[i] = key
		byKey[key] = r
	}
	for _, key := range topoOrder(removalNames, func(key string) []string {
		// Edges point referrer -> referent: the field whose policy READS
		// another doomed field must be removed first, so referents depend
		// on referrers being gone.
		r := byKey[key]
		f := d.from.Model(r.model).Field(r.field)
		var deps []string
		for _, other := range removalNames {
			if other == key {
				continue
			}
			o := byKey[other]
			if fieldPolicyReferences(d.from.Model(o.model).Field(o.field), r.model, r.field) {
				deps = append(deps, other)
			}
		}
		_ = f
		return deps
	}, func([]string) { /* cycles fall back to name order; verification reports it */ }) {
		r := byKey[key]
		d.add(&ast.RemoveField{CmdBase: base(), ModelName: r.model, FieldName: r.field})
	}

	// Phase 6b: re-adds deferred behind the removal of their namesake.
	for _, c := range deferredAdds {
		d.add(c)
	}

	// Phase 7: model deletions, referrers before referents.
	for _, name := range topoOrder(deleted, func(name string) []string {
		var deps []string
		for _, other := range deleted {
			if other == name {
				continue
			}
			if modelReferences(d.from.Model(other), name) {
				deps = append(deps, other)
			}
		}
		return deps
	}, func([]string) { /* cycles fall back to name order; verification reports it */ }) {
		d.add(&ast.DeleteModel{CmdBase: base(), ModelName: name})
	}

	// Phase 8: principal demotions. A demotion that kept references from
	// the old spec cannot structurally succeed (RemovePrincipal refuses
	// while anything mentions the model), so it is reported, not guessed.
	for _, name := range sortedStrings(mapKeys(demoted)) {
		if blockers := d.demotionBlockers(name); len(blockers) > 0 {
			d.res.Complete = false
			d.ambiguous(Ambiguity{Kind: DemotionBlocked, Model: name,
				Detail: fmt.Sprintf("still referenced by %s; restructure those first, then demote", strings.Join(blockers, ", "))})
			continue
		}
		d.add(&ast.RemovePrincipal{CmdBase: base(), ModelName: name})
	}

	// Phase 8b: creations and field additions that reference a demoted
	// model, held back until the demotion is done.
	createInOrder(lateCreated)
	for _, c := range lateAdds {
		d.add(c)
	}

	// Phase 9: static-principal removals.
	for _, c := range d.staticRemovals() {
		d.add(c)
	}
}

// modelRefs returns the members of universe (other than m itself) that m's
// policies or field types reference.
func (d *differ) modelRefs(m *schema.Model, universe []string) []string {
	inUniverse := map[string]bool{}
	for _, u := range universe {
		inUniverse[u] = true
	}
	refs := map[string]bool{}
	addPolicy := func(p ast.Policy) {
		if p.Kind != ast.PolicyFunc {
			return
		}
		for name := range ast.ReferencedModels(p.Fn.Body) {
			refs[name] = true
		}
	}
	addPolicy(m.Create)
	addPolicy(m.Delete)
	for _, f := range m.Fields {
		addPolicy(f.Read)
		addPolicy(f.Write)
		for _, name := range f.Type.ReferencedModels() {
			refs[name] = true
		}
	}
	var out []string
	for name := range refs {
		if name != m.Name && inUniverse[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// demotionBlockers lists the references to model m that survive from the
// old spec into the new one — field types and policies present in both,
// which no synthesized command removes, so they will still exist when the
// RemovePrincipal runs. Additions that reference m are not blockers: they
// are deferred past the demotion.
func (d *differ) demotionBlockers(m string) []string {
	set := map[string]bool{m: true}
	var out []string
	polRefs := func(p ast.Policy) bool { return policyRefsAny(p, set) }
	for _, x := range d.to.Models {
		if x.Name == m {
			continue
		}
		fx := d.from.Model(x.Name)
		if fx == nil {
			continue // created models referencing m are themselves deferred
		}
		if polRefs(x.Create) {
			out = append(out, x.Name+".create")
		}
		if polRefs(x.Delete) {
			out = append(out, x.Name+".delete")
		}
		for _, f := range x.Fields {
			ff := fx.Field(f.Name)
			if ff == nil || !ff.Type.Equal(f.Type) {
				continue // added or type-changed fields are deferred adds
			}
			if typeRefsAny(f.Type, set) {
				out = append(out, x.Name+"."+f.Name)
			}
			if polRefs(f.Read) {
				out = append(out, x.Name+"."+f.Name+".read")
			}
			if polRefs(f.Write) {
				out = append(out, x.Name+"."+f.Name+".write")
			}
		}
	}
	return out
}

// policyRefsAny reports whether p's body references any model in set.
func policyRefsAny(p ast.Policy, set map[string]bool) bool {
	if p.Kind != ast.PolicyFunc {
		return false
	}
	for name := range ast.ReferencedModels(p.Fn.Body) {
		if set[name] {
			return true
		}
	}
	return false
}

// typeRefsAny reports whether t mentions any model in set.
func typeRefsAny(t ast.Type, set map[string]bool) bool {
	for _, n := range t.ReferencedModels() {
		if set[n] {
			return true
		}
	}
	return false
}

func mapKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// detectFieldRenames reports removed/added field pairs on one model that
// share a signature — the classic rename that a structural differ cannot
// distinguish from delete+create.
func (d *differ) detectFieldRenames(model string, removed, added []*schema.Field) {
	for _, rf := range removed {
		var matches []string
		for _, af := range added {
			if af.Name != rf.Name && fieldSignature(af) == fieldSignature(rf) {
				matches = append(matches, af.Name)
			}
		}
		if len(matches) == 1 {
			d.ambiguous(Ambiguity{Kind: FieldRename, Model: model, Field: rf.Name,
				Detail: fmt.Sprintf("removed field matches added field %q exactly (same type and policies); if this is a rename, write the migration by hand to preserve data", matches[0])})
		} else if len(matches) > 1 {
			d.ambiguous(Ambiguity{Kind: FieldRename, Model: model, Field: rf.Name,
				Detail: fmt.Sprintf("removed field matches %d added fields (%s); cannot tell which, if any, is a rename", len(matches), strings.Join(matches, ", "))})
		}
	}
}

// detectModelRenames reports deleted/created model pairs with identical
// field signatures.
func (d *differ) detectModelRenames(deleted, created []string) {
	for _, dn := range deleted {
		sig := modelSignature(d.from.Model(dn))
		var matches []string
		for _, cn := range created {
			if modelSignature(d.to.Model(cn)) == sig {
				matches = append(matches, cn)
			}
		}
		if len(matches) >= 1 {
			d.ambiguous(Ambiguity{Kind: ModelRename, Model: dn,
				Detail: fmt.Sprintf("deleted model matches created model(s) %s field-for-field; if this is a rename, data will not move", strings.Join(matches, ", "))})
		}
	}
}

// fieldSignature is the rename-matching identity of a field: everything
// but its name.
func fieldSignature(f *schema.Field) string {
	return f.Type.String() + "\x00" + f.Read.String() + "\x00" + f.Write.String()
}

// modelSignature is the rename-matching identity of a model: its sorted
// (name, signature) field set plus model-level policies.
func modelSignature(m *schema.Model) string {
	parts := make([]string, 0, len(m.Fields)+3)
	for _, f := range m.Fields {
		parts = append(parts, f.Name+"\x00"+fieldSignature(f))
	}
	sort.Strings(parts)
	parts = append(parts, m.Create.String(), m.Delete.String(), fmt.Sprint(m.Principal))
	return strings.Join(parts, "\x01")
}

// fieldPolicyReferences reports whether f's read or write policy reads
// model.field.
func fieldPolicyReferences(f *schema.Field, model, field string) bool {
	ref := ast.FieldRef{Model: model, Field: field}
	for _, p := range []ast.Policy{f.Read, f.Write} {
		if p.Kind == ast.PolicyFunc && ast.ReferencedFields(p.Fn.Body)[ref] {
			return true
		}
	}
	return false
}

// modelReferences reports whether any policy or field type of m mentions
// the named model.
func modelReferences(m *schema.Model, name string) bool {
	check := func(p ast.Policy) bool {
		return p.Kind == ast.PolicyFunc && ast.ReferencedModels(p.Fn.Body)[name]
	}
	if check(m.Create) || check(m.Delete) {
		return true
	}
	for _, f := range m.Fields {
		if check(f.Read) || check(f.Write) {
			return true
		}
		for _, ref := range f.Type.ReferencedModels() {
			if ref == name {
				return true
			}
		}
	}
	return false
}

// declFromModel converts a schema model back to the declaration form
// CreateModel carries.
func declFromModel(m *schema.Model) *ast.ModelDecl {
	d := &ast.ModelDecl{
		Name:      m.Name,
		Principal: m.Principal,
		Create:    m.Create,
		Delete:    m.Delete,
		Pos:       pos(),
	}
	for _, f := range m.Fields {
		d.Fields = append(d.Fields, &ast.FieldDecl{
			Name: f.Name, Type: f.Type, Read: f.Read, Write: f.Write, Pos: pos(),
		})
	}
	return d
}

// epochRaw is the datetime literal used as the DateTime default.
const epochRaw = "d1-1-1970-00:00:00"

// defaultInit synthesizes the `_ -> default` initialiser for an added
// field, when its type has an obvious neutral element. Id(Model) does not:
// no constant names an instance, so the human writes that one.
func defaultInit(t ast.Type) (*ast.FuncLit, bool) {
	body, ok := defaultExpr(t)
	if !ok {
		return nil, false
	}
	return ast.NewFuncLit(pos(), "_", body), true
}

func defaultExpr(t ast.Type) (ast.Expr, bool) {
	switch t.Kind {
	case ast.TString, ast.TBlob:
		return ast.NewStringLit(pos(), ""), true
	case ast.TI64:
		return ast.NewIntLit(pos(), 0), true
	case ast.TF64:
		return ast.NewFloatLit(pos(), 0), true
	case ast.TBool:
		return ast.NewBoolLit(pos(), false), true
	case ast.TDateTime:
		unix, err := lexer.ParseDateTime(epochRaw)
		if err != nil {
			return nil, false
		}
		return ast.NewDateTimeLit(pos(), unix, epochRaw), true
	case ast.TOption:
		return ast.NewNoneLit(pos()), true
	case ast.TSet:
		return ast.NewSetLit(pos(), nil), true
	}
	return nil, false
}

// topoOrder orders names so that every name's deps() come first; on a
// cycle, onCycle is called with the strongly connected remainder and the
// stragglers are appended in sorted order.
func topoOrder(names []string, deps func(string) []string, onCycle func([]string)) []string {
	remaining := map[string]bool{}
	for _, n := range names {
		remaining[n] = true
	}
	var out []string
	for len(remaining) > 0 {
		var ready []string
		for n := range remaining {
			ok := true
			for _, dep := range deps(n) {
				if remaining[dep] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, n)
			}
		}
		if len(ready) == 0 {
			var rest []string
			for n := range remaining {
				rest = append(rest, n)
			}
			sort.Strings(rest)
			onCycle(rest)
			out = append(out, rest...)
			return out
		}
		sort.Strings(ready)
		out = append(out, ready...)
		for _, n := range ready {
			delete(remaining, n)
		}
	}
	return out
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
