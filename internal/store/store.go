// Package store is an in-memory, concurrency-safe document database — the
// substrate beneath the Scooter ORM. The paper's implementation uses a
// MongoDB driver; this store exposes the same primitives the ORM needs
// (collections of documents, filter queries, field updates, inserts and
// deletes) so the policy-enforcement code path is exercised identically.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ID is a document identifier, unique per database.
type ID int64

// Nil is the zero ID.
const Nil ID = 0

func (id ID) String() string { return fmt.Sprintf("#%d", int64(id)) }

// Value is a document field value: one of int64, float64, bool, string,
// ID, []Value (sets), Optional, or nil.
type Value any

// Optional wraps an optional field value: Present false models None.
type Optional struct {
	Present bool
	Value   Value
}

// Some returns a present Optional.
func Some(v Value) Optional { return Optional{Present: true, Value: v} }

// None returns an absent Optional.
func None() Optional { return Optional{} }

// Doc is a single document: field name to value. The "id" field is
// maintained by the store.
//
// Documents the store returns are shared with it and with every other
// reader: they are read-only, and a caller that needs to change one builds
// its own copy (Clone). The store never modifies a stored document either;
// a write installs a new one, so a document a reader holds never changes.
type Doc map[string]Value

// Clone returns a deep copy of the document.
func (d Doc) Clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = CloneValue(v)
	}
	return out
}

// CloneValue returns a deep copy of a value: sets, and Optionals wrapping
// them, are copied; scalars are returned as they are.
func CloneValue(v Value) Value {
	switch x := v.(type) {
	case []Value:
		out := make([]Value, len(x))
		for i, e := range x {
			out[i] = CloneValue(e)
		}
		return out
	case Optional:
		return Optional{Present: x.Present, Value: CloneValue(x.Value)}
	default:
		return v
	}
}

// ID returns the document's id.
func (d Doc) ID() ID {
	if id, ok := d["id"].(ID); ok {
		return id
	}
	return Nil
}

// FilterOp is a query operator.
type FilterOp int

// Query operators, mirroring Scooter's Find operators.
const (
	FilterEq FilterOp = iota
	FilterLt
	FilterLe
	FilterGt
	FilterGe
	FilterContains // set field contains value
)

// Filter is one query criterion.
type Filter struct {
	Field string
	Op    FilterOp
	Value Value
}

// Eq builds an equality filter.
func Eq(field string, v Value) Filter { return Filter{Field: field, Op: FilterEq, Value: v} }

// Collection is a named set of documents.
type Collection struct {
	mu   sync.RWMutex
	name string
	docs map[ID]Doc
	// ids holds the keys of docs in ascending order. Ids are allocated
	// monotonically, so inserts append; scans read documents in id order
	// without sorting.
	ids     []ID
	db      *DB
	indexes map[string]*fieldIndex
}

// MutationOp identifies the kind of state change a Mutation records.
type MutationOp uint8

// Mutation kinds, covering every write the store performs.
const (
	MutInsert MutationOp = iota + 1
	MutUpdate
	MutDelete
	MutRemoveField
	MutCreateCollection
	MutDropCollection
	MutCreateIndex
)

// Mutation describes one committed state change, in the store's
// serialization order. Doc carries the full document for MutInsert and the
// changed fields for MutUpdate; Field names the target of MutRemoveField
// and MutCreateIndex.
type Mutation struct {
	Op    MutationOp
	Coll  string
	ID    ID
	Doc   Doc
	Field string
}

// WaitFunc blocks until the mutation it was returned for is durable.
type WaitFunc func() error

// Durability receives every mutation the store commits. Append is called
// with the mutated collection's lock held, so the record order equals the
// store's serialization order; implementations must only enqueue (and
// serialise the Doc synchronously — for updates it aliases caller memory)
// and defer all I/O to the returned wait function, which the store invokes
// after releasing the lock and before acknowledging the write.
type Durability interface {
	Append(m Mutation) WaitFunc
}

// DB is an in-memory database: named collections plus an id allocator.
type DB struct {
	mu     sync.RWMutex
	colls  map[string]*Collection
	nextID atomic.Int64

	dur    atomic.Pointer[durabilityBox]
	durErr atomic.Pointer[error]
}

type durabilityBox struct{ d Durability }

// SetDurability attaches a write-ahead logger; every subsequent mutation is
// appended to it before the write is acknowledged. Pass nil to detach.
func (db *DB) SetDurability(d Durability) {
	if d == nil {
		db.dur.Store(nil)
		return
	}
	db.dur.Store(&durabilityBox{d: d})
}

// DurabilityErr returns the first error the durability layer reported, if
// any. Once set, acknowledged writes are no longer guaranteed durable; the
// ORM surfaces this to callers of every later write.
func (db *DB) DurabilityErr() error {
	if p := db.durErr.Load(); p != nil {
		return *p
	}
	return nil
}

// logMutation hands a mutation to the durability layer; callers hold the
// lock covering the mutation. The returned wait must be passed to finish
// after the lock is released.
func (db *DB) logMutation(m Mutation) WaitFunc {
	box := db.dur.Load()
	if box == nil {
		return nil
	}
	return box.d.Append(m)
}

// finish awaits durability of a logged mutation; call with no locks held.
func (db *DB) finish(wait WaitFunc) {
	if wait == nil {
		return
	}
	if err := wait(); err != nil {
		db.durErr.CompareAndSwap(nil, &err)
	}
}

// AdvanceNextID raises the id allocator so future NewID calls never return
// id or anything below it. The WAL uses it when replaying inserts.
func (db *DB) AdvanceNextID(id ID) {
	for {
		cur := db.nextID.Load()
		if int64(id) <= cur || db.nextID.CompareAndSwap(cur, int64(id)) {
			return
		}
	}
}

// Open returns an empty database.
func Open() *DB {
	db := &DB{colls: map[string]*Collection{}}
	db.nextID.Store(1)
	return db
}

// Collection returns (creating if needed) the named collection.
func (db *DB) Collection(name string) *Collection {
	db.mu.RLock()
	if c, ok := db.colls[name]; ok {
		db.mu.RUnlock()
		return c
	}
	db.mu.RUnlock()
	db.mu.Lock()
	if c, ok := db.colls[name]; ok {
		db.mu.Unlock()
		return c
	}
	c := &Collection{name: name, docs: map[ID]Doc{}, db: db}
	db.colls[name] = c
	wait := db.logMutation(Mutation{Op: MutCreateCollection, Coll: name})
	db.mu.Unlock()
	db.finish(wait)
	return c
}

// Lookup returns the named collection without creating it, so that probing
// for a collection (reading the persisted spec, canonicalising a database)
// never mutates the database: Collection creates, and logs a WAL record,
// on first touch.
func (db *DB) Lookup(name string) (*Collection, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.colls[name]
	return c, ok
}

// DropCollection removes a collection and its documents.
func (db *DB) DropCollection(name string) {
	db.mu.Lock()
	var wait WaitFunc
	if _, ok := db.colls[name]; ok {
		delete(db.colls, name)
		wait = db.logMutation(Mutation{Op: MutDropCollection, Coll: name})
	}
	db.mu.Unlock()
	db.finish(wait)
}

// CollectionNames lists collections in sorted order.
func (db *DB) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewID allocates a fresh document id.
func (db *DB) NewID() ID { return ID(db.nextID.Add(1)) }

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a copy of doc, assigning a fresh id, and returns the id.
// When a durability layer is attached, the insert is logged before it is
// acknowledged; a logging failure is reported via DB.DurabilityErr.
func (c *Collection) Insert(doc Doc) ID {
	id := c.db.NewID()
	cp := doc.Clone()
	cp["id"] = id
	c.mu.Lock()
	c.put(id, cp)
	wait := c.db.logMutation(Mutation{Op: MutInsert, Coll: c.name, ID: id, Doc: cp})
	c.mu.Unlock()
	c.db.finish(wait)
	return id
}

// InsertWithID stores a copy of doc under an explicit id; it fails if the
// id is taken.
func (c *Collection) InsertWithID(id ID, doc Doc) error { return c.Adopt(id, doc.Clone()) }

// Adopt is InsertWithID without the copy: the collection takes ownership
// of doc and sets its id field, so the caller must not use doc again. WAL
// replay inserts freshly decoded documents this way.
func (c *Collection) Adopt(id ID, cp Doc) error {
	cp["id"] = id
	c.mu.Lock()
	if _, exists := c.docs[id]; exists {
		c.mu.Unlock()
		return fmt.Errorf("store: id %v already exists in %s", id, c.name)
	}
	c.put(id, cp)
	wait := c.db.logMutation(Mutation{Op: MutInsert, Coll: c.name, ID: id, Doc: cp})
	c.mu.Unlock()
	c.db.finish(wait)
	return c.db.DurabilityErr()
}

// put adds a new document; the caller holds the write lock.
func (c *Collection) put(id ID, d Doc) {
	c.docs[id] = d
	c.ids = insertID(c.ids, id)
	for _, ix := range c.indexes {
		ix.add(id, d)
	}
}

// replace swaps in nd as the document with id, leaving the old document
// untouched for readers still holding it; the caller holds the write lock.
func (c *Collection) replace(id ID, old, nd Doc) {
	c.docs[id] = nd
	for _, ix := range c.indexes {
		ix.update(id, old, nd)
	}
}

// withFields returns a copy of d with fields written over it. The id is
// immutable and skipped. Values d shares with the copy are never modified,
// so the copy is shallow.
func withFields(d, fields Doc) Doc {
	nd := make(Doc, len(d)+len(fields))
	for k, v := range d {
		nd[k] = v
	}
	for k, v := range fields {
		if k != "id" {
			nd[k] = CloneValue(v)
		}
	}
	return nd
}

// Get returns the document with the given id. The document is shared and
// must not be modified (see Doc).
func (c *Collection) Get(id ID) (Doc, bool) {
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	return d, ok
}

// Find returns all documents matching every filter, in id order. Equality
// filters on indexed fields probe the index instead of scanning. The
// documents are shared and must not be modified.
func (c *Collection) Find(filters ...Filter) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids, probed := c.indexProbe(filters)
	if !probed {
		ids = c.ids
	}
	var out []Doc
	if probed || len(filters) == 0 {
		// Every candidate is likely a match.
		out = make([]Doc, 0, len(ids))
	}
	for _, id := range ids {
		if d := c.docs[id]; matchAll(d, filters) {
			out = append(out, d)
		}
	}
	return out
}

// FindAfter returns at most limit documents whose id exceeds after, in
// ascending id order. It is the online-backfill scan primitive: a binary
// search over the id order finds the watermark, so each batch costs
// O(log N + limit) and holds the read lock only that long. Documents
// inserted later with higher ids are picked up by subsequent calls, which
// is exactly what a watermark sweep over a live collection needs. A limit
// <= 0 means no bound. The documents are shared and must not be modified.
func (c *Collection) FindAfter(after ID, limit int) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.ids[c.after(after):]
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Doc, len(ids))
	for i, id := range ids {
		out[i] = c.docs[id]
	}
	return out
}

// after returns the position in c.ids of the first id above the given one.
func (c *Collection) after(id ID) int {
	i, found := slices.BinarySearch(c.ids, id)
	if found {
		i++
	}
	return i
}

// UpdateIfAbsent sets field to v on the document with id only when the
// document does not already carry the field, reporting whether it wrote.
// The check and the write are atomic under the collection lock, so a
// backfill sweep using it never clobbers a value a concurrent lazy
// migration (or an application write under the new schema) already
// installed. A missing document is not an error: the backfill races
// foreground deletes, and a deleted document simply no longer needs the
// field.
func (c *Collection) UpdateIfAbsent(id ID, field string, v Value) (bool, error) {
	fields := Doc{field: v}
	c.mu.Lock()
	d, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return false, nil
	}
	if _, present := d[field]; present {
		c.mu.Unlock()
		return false, nil
	}
	c.replace(id, d, withFields(d, fields))
	wait := c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: id, Doc: fields})
	c.mu.Unlock()
	c.db.finish(wait)
	return true, c.db.DurabilityErr()
}

// Count returns the number of documents matching every filter.
func (c *Collection) Count(filters ...Filter) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids, ok := c.indexProbe(filters)
	if !ok {
		if len(filters) == 0 {
			return len(c.ids)
		}
		ids = c.ids
	}
	n := 0
	for _, id := range ids {
		if matchAll(c.docs[id], filters) {
			n++
		}
	}
	return n
}

// CountAfter returns the number of documents with id > after. Backfills
// use it for cheap remaining-work gauges: a binary search over the id
// order, reading no document.
func (c *Collection) CountAfter(after ID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids) - c.after(after)
}

// Update overwrites the given fields of the document with id. It fails if
// the document does not exist.
func (c *Collection) Update(id ID, fields Doc) error {
	c.mu.Lock()
	d, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("store: no document %v in %s", id, c.name)
	}
	c.replace(id, d, withFields(d, fields))
	wait := c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: id, Doc: fields})
	c.mu.Unlock()
	c.db.finish(wait)
	return c.db.DurabilityErr()
}

// UpdateAll applies an updater function to every document matching the
// filters, in id order; the updater returns the fields to overwrite (nil
// for no change) and must not modify the document it is given. It returns
// the number of updated documents. Used by migrations to populate new
// fields.
// Durability is per document: each modified document is logged as its own
// update record, so a crash mid-bulk-update recovers a prefix of the
// individual document updates. The records share one lock hold, so they
// are contiguous in the log and the final wait covers them all.
func (c *Collection) UpdateAll(filters []Filter, update func(Doc) Doc) int {
	c.mu.Lock()
	n := 0
	var wait WaitFunc
	for _, id := range c.ids {
		d := c.docs[id]
		if !matchAll(d, filters) {
			continue
		}
		fields := update(d)
		if fields == nil {
			continue
		}
		c.replace(id, d, withFields(d, fields))
		wait = c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: id, Doc: fields})
		n++
	}
	c.mu.Unlock()
	c.db.finish(wait)
	return n
}

// RemoveField deletes a field from every document (schema migration).
func (c *Collection) RemoveField(field string) {
	c.mu.Lock()
	for _, id := range c.ids {
		d := c.docs[id]
		if _, ok := d[field]; !ok {
			continue
		}
		nd := make(Doc, len(d)-1)
		for k, v := range d {
			if k != field {
				nd[k] = v
			}
		}
		c.replace(id, d, nd)
	}
	wait := c.db.logMutation(Mutation{Op: MutRemoveField, Coll: c.name, Field: field})
	c.mu.Unlock()
	c.db.finish(wait)
}

// Delete removes the document with the given id, reporting whether it
// existed.
func (c *Collection) Delete(id ID) bool {
	c.mu.Lock()
	d, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return false
	}
	c.indexRemove(id, d)
	delete(c.docs, id)
	c.ids = removeID(c.ids, id)
	wait := c.db.logMutation(Mutation{Op: MutDelete, Coll: c.name, ID: id})
	c.mu.Unlock()
	c.db.finish(wait)
	return true
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// insertID adds id to the ascending slice ids. Ids are allocated in
// increasing order, so the common case appends.
func insertID(ids []ID, id ID) []ID {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, i, id)
}

// removeID deletes id from the ascending slice ids, if present.
func removeID(ids []ID, id ID) []ID {
	if i, found := slices.BinarySearch(ids, id); found {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

func matchAll(d Doc, filters []Filter) bool {
	for _, f := range filters {
		if !match(d, f) {
			return false
		}
	}
	return true
}

func match(d Doc, f Filter) bool {
	v, ok := d[f.Field]
	if !ok {
		return false
	}
	switch f.Op {
	case FilterEq:
		return valueEq(v, f.Value)
	case FilterContains:
		set, ok := v.([]Value)
		if !ok {
			return false
		}
		for _, e := range set {
			if valueEq(e, f.Value) {
				return true
			}
		}
		return false
	default:
		c, ok := CompareNumeric(v, f.Value)
		if !ok {
			return false
		}
		switch f.Op {
		case FilterLt:
			return c < 0
		case FilterLe:
			return c <= 0
		case FilterGt:
			return c > 0
		case FilterGe:
			return c >= 0
		}
	}
	return false
}

func valueEq(a, b Value) bool {
	if oa, ok := a.(Optional); ok {
		ob, ok := b.(Optional)
		if !ok {
			return false
		}
		if oa.Present != ob.Present {
			return false
		}
		return !oa.Present || valueEq(oa.Value, ob.Value)
	}
	if c, ok := CompareNumeric(a, b); ok {
		return c == 0
	}
	switch x := a.(type) {
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case ID:
		y, ok := b.(ID)
		return ok && x == y
	}
	return false
}

// CompareNumeric three-way-compares two numeric values, reporting
// ok=false when either is not numeric. Two integers compare exactly; a
// float on either side takes both through float64. It is the one numeric
// order of the runtime: store filters and the policy interpreter both
// decide comparisons and equality with it.
func CompareNumeric(a, b Value) (int, bool) {
	if x, ok := toInt(a); ok {
		if y, ok := toInt(b); ok {
			return cmp.Compare(x, y), true
		}
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if !aok || !bok {
		return 0, false
	}
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	default:
		return 0, true
	}
}

// HasNaN reports whether v is a NaN or holds one inside an Optional or a
// set. CompareNumeric orders a NaN equal to every number, so a stored NaN
// would satisfy any equality a policy tests; writers refuse such values.
func HasNaN(v Value) bool {
	switch x := v.(type) {
	case float64:
		return x != x
	case Optional:
		return HasNaN(x.Value)
	case []Value:
		for _, e := range x {
			if HasNaN(e) {
				return true
			}
		}
	}
	return false
}

func toInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

func toFloat(v Value) (float64, bool) {
	if x, ok := v.(float64); ok {
		return x, true
	}
	i, ok := toInt(v)
	return float64(i), ok
}

// Match reports whether a single document satisfies the filter; exported
// for the policy evaluator, which checks principals' own documents against
// Find criteria without scanning collections.
func Match(d Doc, f Filter) bool { return match(d, f) }

// MatchAll reports whether the document satisfies every filter.
func MatchAll(d Doc, filters []Filter) bool { return matchAll(d, filters) }
