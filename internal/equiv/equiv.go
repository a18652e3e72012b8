// Package equiv tracks prior definitions during a migration script (paper
// §4 "Using Prior Definitions" and §6.4). When AddField introduces a field
// with an initialiser, later commands in the same script may rely on the
// definitional equality between the new field and the expression that
// populated it — e.g. adminLevel(u) = if isAdmin(u) then 2 else 0. The
// tracker is reset between scripts: executing a migration writes to the
// database, which invalidates definitional equalities.
package equiv

import "scooter/internal/ast"

// FieldKey identifies a model field.
type FieldKey struct {
	Model string
	Field string
}

// Defs is the set of live definitional equalities within one script.
type Defs struct {
	enabled bool
	defs    map[FieldKey]*ast.FuncLit
}

// New returns an empty tracker. Tracking is enabled by default; developers
// can disable it to opt out of the surprising semantics discussed in §6.4.
func New() *Defs {
	return &Defs{enabled: true, defs: map[FieldKey]*ast.FuncLit{}}
}

// SetEnabled toggles definition tracking.
func (d *Defs) SetEnabled(on bool) { d.enabled = on }

// Clone returns an independent copy of the tracker. The migration engine
// snapshots the tracker per command so deferred strictness proofs see the
// definitions live at their command's position while the script advances.
// The FuncLit bodies are shared: AST nodes are immutable once parsed.
func (d *Defs) Clone() *Defs {
	out := &Defs{enabled: d.enabled, defs: make(map[FieldKey]*ast.FuncLit, len(d.defs))}
	for k, v := range d.defs {
		out.defs[k] = v
	}
	return out
}

// Record registers the initialiser of a newly added field. With tracking
// disabled (the §6.4 opt-out) nothing is recorded: a definition remembered
// while opted out would resurface if tracking were re-enabled later in the
// script, resurrecting exactly the equalities the developer opted out of.
func (d *Defs) Record(model, field string, init *ast.FuncLit) {
	if !d.enabled {
		return
	}
	d.defs[FieldKey{Model: model, Field: field}] = init
}

// Lookup returns the live definition of a field, if tracking is enabled.
func (d *Defs) Lookup(model, field string) (*ast.FuncLit, bool) {
	if d == nil || !d.enabled {
		return nil, false
	}
	fn, ok := d.defs[FieldKey{Model: model, Field: field}]
	return fn, ok
}

// Invalidate drops definitions that mention the removed field, as well as
// the definition of the field itself. Called when a field is removed: the
// defining expression can no longer be lowered.
func (d *Defs) Invalidate(model, field string) {
	delete(d.defs, FieldKey{Model: model, Field: field})
	for key, fn := range d.defs {
		if referencesField(fn.Body, model, field) {
			delete(d.defs, key)
		}
	}
}

// InvalidateModel drops definitions on or referencing the removed model.
func (d *Defs) InvalidateModel(model string) {
	for key, fn := range d.defs {
		if key.Model == model || ast.ReferencedModels(fn.Body)[model] {
			delete(d.defs, key)
		}
	}
}

func referencesField(e ast.Expr, model, field string) bool {
	return ast.ReferencedFields(e)[ast.FieldRef{Model: model, Field: field}]
}
