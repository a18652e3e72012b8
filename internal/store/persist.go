package store

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// Snapshot / Restore give the in-memory store durability: the full database
// serialises to a typed JSON document and loads back losslessly. Plain
// encoding/json cannot round-trip the value universe (int64 vs float64, ID
// vs int, Optional), so every value carries a type tag.

// snapshotFile is the on-disk layout.
type snapshotFile struct {
	Version     int                       `json:"version"`
	NextID      int64                     `json:"nextId"`
	Collections map[string]collectionSnap `json:"collections"`
}

type collectionSnap struct {
	Indexes []string           `json:"indexes,omitempty"`
	Docs    map[string]docSnap `json:"docs"` // key: decimal id
}

type docSnap map[string]taggedValue

type taggedValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v"`
}

func encodeValue(v Value) (taggedValue, error) {
	mk := func(t string, v any) (taggedValue, error) {
		raw, err := json.Marshal(v)
		if err != nil {
			return taggedValue{}, err
		}
		return taggedValue{T: t, V: raw}, nil
	}
	switch x := v.(type) {
	case nil:
		return mk("null", nil)
	case int64:
		return mk("i", x)
	case float64:
		return mk("f", x)
	case bool:
		return mk("b", x)
	case string:
		return mk("s", x)
	case ID:
		return mk("id", int64(x))
	case []Value:
		elems := make([]taggedValue, len(x))
		for i, e := range x {
			tv, err := encodeValue(e)
			if err != nil {
				return taggedValue{}, err
			}
			elems[i] = tv
		}
		return mk("set", elems)
	case Optional:
		if !x.Present {
			return mk("none", nil)
		}
		inner, err := encodeValue(x.Value)
		if err != nil {
			return taggedValue{}, err
		}
		return mk("some", inner)
	}
	return taggedValue{}, fmt.Errorf("store: value %T cannot be serialised", v)
}

func decodeValue(tv taggedValue) (Value, error) {
	switch tv.T {
	case "null":
		return nil, nil
	case "i":
		var n int64
		err := json.Unmarshal(tv.V, &n)
		return n, err
	case "f":
		var f float64
		err := json.Unmarshal(tv.V, &f)
		return f, err
	case "b":
		var b bool
		err := json.Unmarshal(tv.V, &b)
		return b, err
	case "s":
		var s string
		err := json.Unmarshal(tv.V, &s)
		return s, err
	case "id":
		var n int64
		err := json.Unmarshal(tv.V, &n)
		return ID(n), err
	case "set":
		var elems []taggedValue
		if err := json.Unmarshal(tv.V, &elems); err != nil {
			return nil, err
		}
		out := make([]Value, len(elems))
		for i, e := range elems {
			v, err := decodeValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "none":
		return None(), nil
	case "some":
		var inner taggedValue
		if err := json.Unmarshal(tv.V, &inner); err != nil {
			return nil, err
		}
		v, err := decodeValue(inner)
		if err != nil {
			return nil, err
		}
		return Some(v), nil
	}
	return nil, fmt.Errorf("store: unknown value tag %q", tv.T)
}

// Snapshot writes the whole database as JSON. Collections are written in
// sorted order so snapshots are deterministic. The snapshot is a consistent
// point-in-time cut: every collection lock is acquired before any data is
// read, so a concurrent writer's mutations are either all visible or all
// absent relative to the mutations that happened before them.
func (db *DB) Snapshot(w io.Writer) error { return db.SnapshotCut(w, nil) }

// SnapshotCut is Snapshot with a hook invoked at the cut point, while every
// lock is held and no writer can sit between applying a mutation and
// logging it. The WAL uses the hook to rotate segments exactly at the
// snapshot boundary during compaction.
func (db *DB) SnapshotCut(w io.Writer, cut func()) error {
	file, err := db.capture(cut).encode()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// cutState is a database captured at a cut: per collection, its indexes
// and its (id, document) pairs in id order. Stored documents are never
// modified, so the pairs stay a faithful image of the cut after the locks
// are released and writers move on.
type cutState struct {
	nextID int64
	names  []string
	colls  []cutColl
}

type cutColl struct {
	indexes []string
	ids     []ID
	docs    []Doc
}

// capture takes the cut under a full lock set: the DB lock plus every
// collection lock, acquired in sorted name order before any document is
// read. Only pointers are copied while writers wait; encoding happens
// after release.
func (db *DB) capture(cut func()) *cutState {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	colls := make([]*Collection, len(names))
	for i, n := range names {
		colls[i] = db.colls[n]
		colls[i].mu.RLock()
		defer colls[i].mu.RUnlock()
	}

	if cut != nil {
		cut()
	}

	st := &cutState{nextID: db.nextID.Load(), names: names, colls: make([]cutColl, len(colls))}
	for i, c := range colls {
		cc := cutColl{ids: slices.Clone(c.ids), docs: make([]Doc, len(c.ids))}
		for f := range c.indexes {
			cc.indexes = append(cc.indexes, f)
		}
		for j, id := range c.ids {
			cc.docs[j] = c.docs[id]
		}
		st.colls[i] = cc
	}
	return st
}

// encode renders a captured cut in the snapshot layout.
func (st *cutState) encode() (*snapshotFile, error) {
	file := &snapshotFile{
		Version:     1,
		NextID:      st.nextID,
		Collections: make(map[string]collectionSnap, len(st.names)),
	}
	for i, cc := range st.colls {
		snap := collectionSnap{Indexes: cc.indexes, Docs: make(map[string]docSnap, len(cc.docs))}
		sort.Strings(snap.Indexes)
		for j, id := range cc.ids {
			ds := docSnap{}
			for k, v := range cc.docs[j] {
				if k == "id" {
					continue // implicit in the key
				}
				tv, err := encodeValue(v)
				if err != nil {
					return nil, fmt.Errorf("collection %s doc %v field %s: %w", st.names[i], id, k, err)
				}
				ds[k] = tv
			}
			snap.Docs[strconv.FormatInt(int64(id), 10)] = ds
		}
		file.Collections[st.names[i]] = snap
	}
	return file, nil
}

// MarshalDoc encodes a document with the same typed tagging Snapshot uses,
// skipping the "id" field (it travels beside the document). The WAL logs
// documents in this form.
func MarshalDoc(d Doc) ([]byte, error) {
	ds := docSnap{}
	for k, v := range d {
		if k == "id" {
			continue
		}
		tv, err := encodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", k, err)
		}
		ds[k] = tv
	}
	return json.Marshal(ds)
}

// UnmarshalDoc decodes a MarshalDoc payload.
func UnmarshalDoc(b []byte) (Doc, error) {
	var ds docSnap
	if err := json.Unmarshal(b, &ds); err != nil {
		return nil, err
	}
	doc := Doc{}
	for k, tv := range ds {
		v, err := decodeValue(tv)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", k, err)
		}
		doc[k] = v
	}
	return doc, nil
}

// Restore loads a snapshot into a fresh database.
func Restore(r io.Reader) (*DB, error) {
	var file snapshotFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	if file.Version != 1 {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", file.Version)
	}
	db := Open()
	db.nextID.Store(file.NextID)
	for name, snap := range file.Collections {
		c := db.Collection(name)
		for _, field := range snap.Indexes {
			c.EnsureIndex(field)
		}
		type entry struct {
			id  ID
			doc Doc
		}
		docs := make([]entry, 0, len(snap.Docs))
		for idStr, ds := range snap.Docs {
			var idNum int64
			if _, err := fmt.Sscan(idStr, &idNum); err != nil {
				return nil, fmt.Errorf("store: bad document id %q: %w", idStr, err)
			}
			doc := Doc{}
			for k, tv := range ds {
				v, err := decodeValue(tv)
				if err != nil {
					return nil, fmt.Errorf("store: %s/%s.%s: %w", name, idStr, k, err)
				}
				doc[k] = v
			}
			docs = append(docs, entry{ID(idNum), doc})
		}
		// Inserted in id order, every document appends to the id order.
		slices.SortFunc(docs, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
		for _, e := range docs {
			if err := c.InsertWithID(e.id, e.doc); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
