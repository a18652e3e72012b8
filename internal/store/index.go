package store

import "fmt"

// Secondary hash indexes. Policies translate into many equality queries
// (author lookups, Find({field: v}) probes), which scan without an index.
// EnsureIndex installs a hash index on one field; Find and Count use it
// automatically for equality filters, and mutations keep it current.
//
// Index keys cover the hashable scalar values (int64, float64, bool,
// string, ID). Sets, Optionals, and missing fields are tracked under a
// sentinel bucket so indexed queries never miss documents.

// indexKey converts a value into a map key; ok is false for values the
// index cannot key (which fall back to the scan path).
func indexKey(v Value) (any, bool) {
	switch v.(type) {
	case int64, float64, bool, string, ID:
		return v, true
	}
	return nil, false
}

type fieldIndex struct {
	field string
	// buckets maps an index key to the ascending ids of documents holding
	// it, so an index probe yields candidates already in id order.
	buckets map[any][]ID
	// unkeyed holds, ascending, the ids whose field value is absent or
	// un-keyable.
	unkeyed []ID
}

func newFieldIndex(field string) *fieldIndex {
	return &fieldIndex{field: field, buckets: map[any][]ID{}}
}

// key returns the document's index key; ok is false when the field is
// absent or un-keyable.
func (ix *fieldIndex) key(doc Doc) (any, bool) {
	v, present := doc[ix.field]
	if !present {
		return nil, false
	}
	return indexKey(v)
}

func (ix *fieldIndex) add(id ID, doc Doc) {
	if key, ok := ix.key(doc); ok {
		ix.buckets[key] = insertID(ix.buckets[key], id)
	} else {
		ix.unkeyed = insertID(ix.unkeyed, id)
	}
}

func (ix *fieldIndex) remove(id ID, doc Doc) {
	key, ok := ix.key(doc)
	if !ok {
		ix.unkeyed = removeID(ix.unkeyed, id)
		return
	}
	if b := removeID(ix.buckets[key], id); len(b) > 0 {
		ix.buckets[key] = b
	} else {
		delete(ix.buckets, key)
	}
}

// update moves id between buckets when a write changes its key; a write
// that leaves the indexed field's key alone costs no bucket edit.
func (ix *fieldIndex) update(id ID, old, nd Doc) {
	oldKey, oldOK := ix.key(old)
	newKey, newOK := ix.key(nd)
	if oldOK == newOK && oldKey == newKey {
		return
	}
	ix.remove(id, old)
	ix.add(id, nd)
}

// candidates returns the ids possibly matching field == v in ascending
// order, or ok=false when the index cannot answer (un-keyable probe
// value). The slice is the index's own: read it under the collection lock
// and do not retain it.
func (ix *fieldIndex) candidates(v Value) ([]ID, bool) {
	key, ok := indexKey(v)
	if !ok {
		return nil, false
	}
	// Unkeyed documents can never equal a keyable probe value, so they are
	// excluded: a missing field matches no filter, and set/optional values
	// do not compare equal to scalars.
	return ix.buckets[key], true
}

// EnsureIndex installs (or reuses) a hash index on the field and backfills
// it from existing documents.
func (c *Collection) EnsureIndex(field string) {
	if field == "id" {
		return // the primary map already serves id lookups
	}
	c.mu.Lock()
	if c.indexes == nil {
		c.indexes = map[string]*fieldIndex{}
	}
	if _, ok := c.indexes[field]; ok {
		c.mu.Unlock()
		return
	}
	ix := newFieldIndex(field)
	for _, id := range c.ids {
		ix.add(id, c.docs[id])
	}
	c.indexes[field] = ix
	wait := c.db.logMutation(Mutation{Op: MutCreateIndex, Coll: c.name, Field: field})
	c.mu.Unlock()
	c.db.finish(wait)
}

// Indexes lists the indexed fields.
func (c *Collection) Indexes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for f := range c.indexes {
		out = append(out, f)
	}
	return out
}

// indexRemove drops a deleted document from every index; callers hold the
// write lock.
func (c *Collection) indexRemove(id ID, doc Doc) {
	for _, ix := range c.indexes {
		ix.remove(id, doc)
	}
}

// indexProbe finds the most selective equality filter backed by an index
// and returns the candidate ids; ok=false means no usable index.
func (c *Collection) indexProbe(filters []Filter) ([]ID, bool) {
	if len(c.indexes) == 0 {
		return nil, false
	}
	best := -1
	var bestIDs []ID
	for _, f := range filters {
		if f.Op != FilterEq {
			continue
		}
		ix, ok := c.indexes[f.Field]
		if !ok {
			continue
		}
		ids, ok := ix.candidates(f.Value)
		if !ok {
			continue
		}
		if best == -1 || len(ids) < best {
			best = len(ids)
			bestIDs = ids
		}
	}
	return bestIDs, best >= 0
}

// checkIndexInvariant validates that every index covers exactly the live
// documents; exposed for tests.
func (c *Collection) checkIndexInvariant() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for field, ix := range c.indexes {
		count := len(ix.unkeyed)
		for _, b := range ix.buckets {
			count += len(b)
		}
		if count != len(c.docs) {
			return fmt.Errorf("index %s covers %d docs, collection has %d", field, count, len(c.docs))
		}
	}
	return nil
}
