// Package orm is the policy-enforcing object-relational mapper generated
// applications use to access persistent data (paper §3.3). Every operation
// is performed on behalf of a principal; read policies strip fields the
// principal may not see (partial objects), and create/update/delete
// policies reject forbidden writes with a PolicyError, which applications
// surface as HTTP 403 in production.
package orm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/obs"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Principal aliases the evaluator's principal type.
type Principal = eval.Principal

// connState bundles everything an operation derives from the bound schema:
// the schema itself, its evaluator, and the in-flight lazy-migration
// windows. Operations load it once through an atomic pointer and use that
// one consistent view throughout — an online migration can swap the whole
// bundle mid-traffic (SetSchema, then SetLazyMigration per backfill)
// without a foreground reader ever seeing a schema from one epoch paired
// with an evaluator from another.
type connState struct {
	schema *schema.Schema
	ev     *eval.Evaluator
	// lazy maps a model name to its in-flight online backfill, if any. At
	// most one per model: Apply runs commands sequentially and closes each
	// window before the next opens.
	lazy map[string]lazyField
}

// lazyField describes one field an online backfill is still sweeping:
// documents that predate the sweep lack it, and compute derives its value
// from such a document's current fields. compute is safe for concurrent
// use.
type lazyField struct {
	field   string
	compute func(store.Doc) (store.Value, error)
}

// Conn is a database connection bound to a schema.
type Conn struct {
	DB *store.DB
	// state is the schema-derived bundle, swapped wholesale on migration.
	state atomic.Pointer[connState]
	// stateMu serialises state writers; readers never take it.
	stateMu sync.Mutex

	// enforcement can be disabled in debug builds only (paper §6.2: the
	// ORM "in debug mode also allows developers to temporarily turn off
	// enforcement", e.g. for application-level migrations).
	enforcement bool
	// readOnly rejects every write before its policy is even evaluated.
	// Replication followers set it: their store mirrors the primary's log,
	// so a local write would diverge from the replicated history.
	readOnly bool
	// metrics observes the policy boundary (reads/writes checked, fields
	// stripped, writes denied). Nil is a no-op sink.
	metrics *obs.ORMMetrics
}

// ErrReadOnly reports a write attempted through a read-only connection
// (e.g. a replication follower).
var ErrReadOnly = fmt.Errorf("orm: connection is read-only (replica)")

// Open binds a schema to a database with enforcement on.
func Open(s *schema.Schema, db *store.DB) *Conn {
	c := &Conn{DB: db, enforcement: true}
	c.state.Store(&connState{schema: s, ev: eval.New(s, db)})
	return c
}

// Schema returns the currently bound schema.
func (c *Conn) Schema() *schema.Schema { return c.state.Load().schema }

// SetEnforcement toggles policy enforcement (debug only).
func (c *Conn) SetEnforcement(on bool) { c.enforcement = on }

// SetReadOnly marks the connection read-only: Insert, Update, and Delete
// fail with ErrReadOnly. Read policies are still enforced in full.
func (c *Conn) SetReadOnly(on bool) { c.readOnly = on }

// SetMetrics attaches policy-boundary metrics to the connection.
func (c *Conn) SetMetrics(m *obs.ORMMetrics) { c.metrics = m }

// SetSchema swaps the schema after a migration. A fresh evaluator for s is
// installed in one atomic swap, so operations racing the migration see
// either the old epoch or the new one, never a mixture. An unchanged
// schema pointer is a no-op.
func (c *Conn) SetSchema(s *schema.Schema) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	old := c.state.Load()
	if s == old.schema {
		return
	}
	c.state.Store(&connState{schema: s, ev: eval.New(s, c.DB), lazy: old.lazy})
}

// SetLazyMigration opens a dual-read window for one field an online
// backfill is sweeping: until ClearLazyMigration, operations that touch a
// document lacking the field derive it on the fly with compute — reads
// (and every policy decision) see the post-migration shape without writing
// anything, and Update persists the derived value together with the
// foreground write so the document lands migrated.
func (c *Conn) SetLazyMigration(model, field string, compute func(store.Doc) (store.Value, error)) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	old := c.state.Load()
	lazy := make(map[string]lazyField, len(old.lazy)+1)
	for k, v := range old.lazy {
		lazy[k] = v
	}
	lazy[model] = lazyField{field: field, compute: compute}
	c.state.Store(&connState{schema: old.schema, ev: old.ev, lazy: lazy})
}

// ClearLazyMigration closes the model's dual-read window (the sweep has
// covered the collection).
func (c *Conn) ClearLazyMigration(model string) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	old := c.state.Load()
	if _, ok := old.lazy[model]; !ok {
		return
	}
	lazy := make(map[string]lazyField, len(old.lazy))
	for k, v := range old.lazy {
		if k != model {
			lazy[k] = v
		}
	}
	c.state.Store(&connState{schema: old.schema, ev: old.ev, lazy: lazy})
}

// augment lazily migrates a document that predates the in-flight
// backfill: it returns a copy of doc carrying the derived field, and
// whether it derived it. A document that needs no derivation is returned
// as it is. Neither doc (shared with the store) nor the store is written —
// reads stay side-effect-free; persistence is the writer's job (Update
// merges the derived value into its own record, and the sweep catches
// documents no write touches).
func (st *connState) augment(model string, doc store.Doc) (store.Doc, bool, error) {
	lf, ok := st.lazy[model]
	if !ok {
		return doc, false, nil
	}
	if _, present := doc[lf.field]; present {
		return doc, false, nil
	}
	v, err := lf.compute(doc)
	if err != nil {
		return nil, false, fmt.Errorf("orm: lazily migrating %s.%s: %w", model, lf.field, err)
	}
	out := make(store.Doc, len(doc)+1)
	for k, x := range doc {
		out[k] = x
	}
	out[lf.field] = v
	return out, true, nil
}

// AsPrinc returns a handle performing operations on behalf of p.
func (c *Conn) AsPrinc(p Principal) *Princ {
	return &Princ{conn: c, p: p}
}

// Princ performs policy-checked operations for one principal.
type Princ struct {
	conn *Conn
	p    Principal
}

// Principal returns the principal this handle acts for.
func (pr *Princ) Principal() Principal { return pr.p }

// PolicyError reports a rejected operation.
type PolicyError struct {
	Op        ast.Operation
	Principal Principal
	Model     string
	Field     string // set for field write rejections
	ID        store.ID
}

func (e *PolicyError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("policy violation: %s may not %s %s.%s of %s(%v)",
			e.Principal, e.Op, e.Model, e.Field, e.Model, e.ID)
	}
	return fmt.Sprintf("policy violation: %s may not %s %s(%v)",
		e.Principal, e.Op, e.Model, e.ID)
}

// Object is a partial model instance: fields the principal may not read
// are absent (paper §3.3 "Handling Overly Sensitive Fields").
type Object struct {
	Model string
	ID    store.ID
	// fields are the model's declared fields; vals[i] holds the value of
	// fields[i] when the principal may read it. Values are shared with the
	// store, so they leave the Object only as copies.
	fields []*schema.Field
	vals   []slot
}

type slot struct {
	v        store.Value
	readable bool
}

// Get returns a field value and whether the principal could read it.
// Sets are returned as the caller's own copy.
func (o *Object) Get(field string) (store.Value, bool) {
	v, ok := o.shared(field)
	if !ok {
		return nil, false
	}
	return store.CloneValue(v), true
}

// shared is Get without the copy, for the ORM's own read-only use.
func (o *Object) shared(field string) (store.Value, bool) {
	for i, f := range o.fields {
		if f.Name == field {
			return o.vals[i].v, o.vals[i].readable
		}
	}
	return nil, false
}

// Fields returns the readable fields as a new document the caller owns.
func (o *Object) Fields() store.Doc {
	out := make(store.Doc, len(o.fields))
	for i, f := range o.fields {
		if s := o.vals[i]; s.readable {
			out[f.Name] = store.CloneValue(s.v)
		}
	}
	return out
}

// FindByID fetches one instance, stripping unreadable fields. A missing
// document returns (nil, nil): absence and denial are indistinguishable to
// the application, which avoids existence oracles.
func (pr *Princ) FindByID(model string, id store.ID) (*Object, error) {
	st := pr.conn.state.Load()
	m := st.schema.Model(model)
	if m == nil {
		return nil, fmt.Errorf("orm: unknown model %s", model)
	}
	doc, ok := pr.conn.DB.Collection(model).Get(id)
	if !ok {
		return nil, nil
	}
	doc, lazied, err := st.augment(model, doc)
	if err != nil {
		return nil, err
	}
	if lazied {
		pr.conn.metrics.RecordLazyRead()
	}
	return pr.strip(st, m, doc)
}

// Find returns the matching instances with unreadable fields stripped.
// Filters may only mention fields the principal can read on each matching
// document; documents with an unreadable filtered field are omitted.
// During a lazy-migration window, filters on the in-flight field are
// evaluated after lazy migration, so not-yet-backfilled documents match as
// if the backfill had already reached them.
func (pr *Princ) Find(model string, filters ...store.Filter) ([]*Object, error) {
	st := pr.conn.state.Load()
	m := st.schema.Model(model)
	if m == nil {
		return nil, fmt.Errorf("orm: unknown model %s", model)
	}
	storeFilters := filters
	var lazyFilters []store.Filter
	if lf, ok := st.lazy[model]; ok {
		storeFilters = storeFilters[:0:0]
		for _, f := range filters {
			if f.Field == lf.field {
				lazyFilters = append(lazyFilters, f)
			} else {
				storeFilters = append(storeFilters, f)
			}
		}
	}
	docs := pr.conn.DB.Collection(model).Find(storeFilters...)
	out := make([]*Object, 0, len(docs))
	for _, doc := range docs {
		doc, lazied, err := st.augment(model, doc)
		if err != nil {
			return nil, err
		}
		if lazied {
			pr.conn.metrics.RecordLazyRead()
		}
		if len(lazyFilters) > 0 && !store.MatchAll(doc, lazyFilters) {
			continue
		}
		obj, err := pr.strip(st, m, doc)
		if err != nil {
			return nil, err
		}
		// Enforce that the query itself did not observe unreadable
		// fields: if any filtered field was stripped, hide the document.
		visible := true
		for _, f := range filters {
			if f.Field == schema.IDFieldName {
				continue
			}
			if _, ok := obj.shared(f.Field); !ok {
				visible = false
				break
			}
		}
		if visible {
			out = append(out, obj)
		}
	}
	return out, nil
}

// strip applies read policies, producing a partial object. Only fields the
// document carries can be readable: a field the bound schema declares but
// the document lacks (the schema has flipped ahead of a backfill that has
// not reached it) is absent, never a nil value.
func (pr *Princ) strip(st *connState, m *schema.Model, doc store.Doc) (*Object, error) {
	obj := &Object{Model: m.Name, ID: doc.ID(), fields: m.Fields, vals: make([]slot, len(m.Fields))}
	if !pr.conn.enforcement {
		for i, f := range m.Fields {
			v, present := doc[f.Name]
			obj.vals[i] = slot{v: v, readable: present}
		}
		return obj, nil
	}
	for i, f := range m.Fields {
		v, present := doc[f.Name]
		if !present {
			continue
		}
		ok, err := st.ev.Allowed(pr.p, m.Name, doc, f.Read)
		if err != nil {
			return nil, fmt.Errorf("orm: evaluating %s.%s read policy: %w", m.Name, f.Name, err)
		}
		pr.conn.metrics.RecordReadCheck(!ok)
		if ok {
			obj.vals[i] = slot{v: v, readable: true}
		}
	}
	return obj, nil
}

// Insert creates an instance after checking the model's create policy. All
// declared fields must be present; during a lazy-migration window the
// in-flight field may be omitted, in which case it is derived from the
// candidate document — writers that still speak the old shape keep working
// through the drain.
func (pr *Princ) Insert(model string, fields store.Doc) (store.ID, error) {
	pr.conn.metrics.RecordWriteCheck()
	if pr.conn.readOnly {
		pr.conn.metrics.RecordWriteDenied()
		return store.Nil, ErrReadOnly
	}
	st := pr.conn.state.Load()
	m := st.schema.Model(model)
	if m == nil {
		return store.Nil, fmt.Errorf("orm: unknown model %s", model)
	}
	if lf, ok := st.lazy[model]; ok {
		if _, present := fields[lf.field]; !present {
			v, err := lf.compute(fields)
			if err != nil {
				return store.Nil, fmt.Errorf("orm: lazily migrating %s.%s on insert: %w", model, lf.field, err)
			}
			withLazy := make(store.Doc, len(fields)+1)
			for k, val := range fields {
				withLazy[k] = val
			}
			withLazy[lf.field] = v
			fields = withLazy
			pr.conn.metrics.RecordLazyWrite()
		}
	}
	for _, f := range m.Fields {
		if _, ok := fields[f.Name]; !ok {
			return store.Nil, fmt.Errorf("orm: missing field %s.%s on insert", model, f.Name)
		}
	}
	if err := refuseNaN(model, fields); err != nil {
		return store.Nil, err
	}
	if pr.conn.enforcement {
		// The create policy is evaluated on the candidate document.
		ok, err := st.ev.Allowed(pr.p, model, fields, m.Create)
		if err != nil {
			return store.Nil, err
		}
		if !ok {
			pr.conn.metrics.RecordWriteDenied()
			return store.Nil, &PolicyError{Op: ast.OpCreate, Principal: pr.p, Model: model}
		}
	}
	id := pr.conn.DB.Collection(model).Insert(fields)
	// With a write-ahead log attached, Insert returns only after the record
	// is logged; a durability failure means the write may not survive a
	// crash, and is surfaced instead of acknowledged.
	if err := pr.conn.DB.DurabilityErr(); err != nil {
		return store.Nil, err
	}
	return id, nil
}

// Update overwrites fields after checking each one's write policy against
// the stored document. During a lazy-migration window, a document the
// backfill has not reached is migrated by this write: its derived field is
// merged into the same store record, so the foreground write and the
// migration land atomically and the document can never be observed with
// the write applied but the migration missing.
func (pr *Princ) Update(model string, id store.ID, fields store.Doc) error {
	pr.conn.metrics.RecordWriteCheck()
	if pr.conn.readOnly {
		pr.conn.metrics.RecordWriteDenied()
		return ErrReadOnly
	}
	st := pr.conn.state.Load()
	m := st.schema.Model(model)
	if m == nil {
		return fmt.Errorf("orm: unknown model %s", model)
	}
	if err := refuseNaN(model, fields); err != nil {
		return err
	}
	doc, ok := pr.conn.DB.Collection(model).Get(id)
	if !ok {
		return fmt.Errorf("orm: no %s with id %v", model, id)
	}
	// Policy decisions are made against the post-migration shape.
	doc, lazied, err := st.augment(model, doc)
	if err != nil {
		return err
	}
	if pr.conn.enforcement {
		for name := range fields {
			f := m.Field(name)
			if f == nil {
				return fmt.Errorf("orm: unknown field %s.%s", model, name)
			}
			allowed, err := st.ev.Allowed(pr.p, model, doc, f.Write)
			if err != nil {
				return err
			}
			if !allowed {
				pr.conn.metrics.RecordWriteDenied()
				return &PolicyError{Op: ast.OpWrite, Principal: pr.p, Model: model, Field: name, ID: id}
			}
		}
	}
	if lazied {
		lf := st.lazy[model]
		if _, callerWrites := fields[lf.field]; !callerWrites {
			merged := make(store.Doc, len(fields)+1)
			for k, v := range fields {
				merged[k] = v
			}
			merged[lf.field] = doc[lf.field]
			fields = merged
			pr.conn.metrics.RecordLazyWrite()
		}
	}
	return pr.conn.DB.Collection(model).Update(id, fields)
}

// refuseNaN rejects a write carrying a NaN anywhere in its values. The
// runtime's one numeric order (store.CompareNumeric) holds a NaN equal to
// every number, so a stored NaN would satisfy every equality a policy
// tests on it.
func refuseNaN(model string, fields store.Doc) error {
	for name, v := range fields {
		if store.HasNaN(v) {
			return fmt.Errorf("orm: %s.%s: NaN is not a storable value", model, name)
		}
	}
	return nil
}

// Delete removes an instance after checking the model's delete policy.
func (pr *Princ) Delete(model string, id store.ID) error {
	pr.conn.metrics.RecordWriteCheck()
	if pr.conn.readOnly {
		pr.conn.metrics.RecordWriteDenied()
		return ErrReadOnly
	}
	st := pr.conn.state.Load()
	m := st.schema.Model(model)
	if m == nil {
		return fmt.Errorf("orm: unknown model %s", model)
	}
	doc, ok := pr.conn.DB.Collection(model).Get(id)
	if !ok {
		return fmt.Errorf("orm: no %s with id %v", model, id)
	}
	// The delete policy, too, judges the post-migration shape; nothing is
	// persisted for a document that is about to disappear.
	doc, _, err := st.augment(model, doc)
	if err != nil {
		return err
	}
	if pr.conn.enforcement {
		allowed, err := st.ev.Allowed(pr.p, model, doc, m.Delete)
		if err != nil {
			return err
		}
		if !allowed {
			pr.conn.metrics.RecordWriteDenied()
			return &PolicyError{Op: ast.OpDelete, Principal: pr.p, Model: model, ID: id}
		}
	}
	if !pr.conn.DB.Collection(model).Delete(id) {
		return fmt.Errorf("orm: no %s with id %v", model, id)
	}
	return pr.conn.DB.DurabilityErr()
}
