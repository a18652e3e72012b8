package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
)

// Snapshot / Restore give the in-memory store durability: the full
// database serialises to one binary image and loads back losslessly.
//
//	[8B magic "SCSNAP02"]
//	[varint next id][uvarint collection count]
//	per collection, in ascending name order:
//	  [string name][uvarint index count][string field ...]
//	  [uvarint document count]
//	  per document, in ascending id order: [varint id][document]
//	[4B little-endian CRC32C of everything before it]
//
// Strings and documents use the value codec (codec.go); index fields are
// sorted. Every database state therefore has exactly one snapshot, and
// snapshot bytes serve as a state fingerprint.
const snapMagic = "SCSNAP02"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot writes the whole database. The snapshot is a consistent
// point-in-time cut: every collection lock is acquired before any data is
// read, so a concurrent writer's mutations are either all visible or all
// absent relative to the mutations that happened before them.
func (db *DB) Snapshot(w io.Writer) error { return db.SnapshotCut(w, nil) }

// SnapshotCut is Snapshot with a hook invoked at the cut point, while every
// lock is held and no writer can sit between applying a mutation and
// logging it. The WAL uses the hook to rotate segments exactly at the
// snapshot boundary during compaction.
func (db *DB) SnapshotCut(w io.Writer, cut func()) error {
	b, err := db.capture(cut).encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
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
func (st *cutState) encode() ([]byte, error) {
	b := binary.AppendVarint([]byte(snapMagic), st.nextID)
	b = binary.AppendUvarint(b, uint64(len(st.names)))
	for i, cc := range st.colls {
		b = AppendString(b, st.names[i])
		slices.Sort(cc.indexes)
		b = binary.AppendUvarint(b, uint64(len(cc.indexes)))
		for _, f := range cc.indexes {
			b = AppendString(b, f)
		}
		b = binary.AppendUvarint(b, uint64(len(cc.ids)))
		for j, id := range cc.ids {
			b = binary.AppendVarint(b, int64(id))
			var err error
			if b, err = AppendDoc(b, cc.docs[j]); err != nil {
				return nil, fmt.Errorf("store: collection %s doc %v: %w", st.names[i], id, err)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// Restore loads a snapshot into a fresh database. It rejects a snapshot
// that is truncated, fails its checksum, or is not in canonical order.
func Restore(r io.Reader) (*DB, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	switch {
	case len(buf) > 0 && buf[0] == '{':
		return nil, fmt.Errorf("store: snapshot is in the version-1 JSON format; this build reads only %s snapshots", snapMagic)
	case len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != snapMagic:
		return nil, fmt.Errorf("store: not a %s snapshot", snapMagic)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("store: snapshot checksum mismatch")
	}
	d := NewDecoder(body[len(snapMagic):])
	db := Open()
	db.nextID.Store(d.Varint())
	var prev string
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		name := d.Str()
		if i > 0 && name <= prev {
			d.fail("store: collection %q duplicated or out of order", name)
		}
		prev = name
		c := db.Collection(name)
		indexes := make([]string, d.count())
		for j := range indexes {
			indexes[j] = d.Str()
			if j > 0 && indexes[j] <= indexes[j-1] {
				d.fail("store: %s: index %q duplicated or out of order", name, indexes[j])
			}
		}
		// Documents arrive in id order, so each appends to the id order.
		docs := d.count()
		c.docs = make(map[ID]Doc, docs)
		c.ids = make([]ID, 0, docs)
		for j := 0; j < docs && d.err == nil; j++ {
			id := ID(d.Varint())
			if j > 0 && id <= c.ids[j-1] {
				d.fail("store: %s: document %v duplicated or out of order", name, id)
			}
			doc := d.Doc()
			if d.err != nil {
				break
			}
			doc["id"] = id
			c.docs[id] = doc
			c.ids = append(c.ids, id)
		}
		for _, f := range indexes {
			c.EnsureIndex(f)
		}
	}
	if d.err == nil && d.Len() != 0 {
		d.fail("store: %d trailing bytes after the last collection", d.Len())
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot: %w", d.err)
	}
	return db, nil
}
