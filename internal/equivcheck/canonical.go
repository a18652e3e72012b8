package equivcheck

import (
	"fmt"
	"sort"
	"strings"

	"scooter/internal/store"
	"scooter/internal/verify"
)

// divergence is the first point where two stores disagree, in canonical
// order (collections sorted, documents by id, fields sorted).
type divergence struct {
	collection string
	docID      string // "" for collection-level divergences (presence/count)
	field      string // "" for document-level divergences (presence)
	va, vb     string // rendered values ("<absent>" when missing)
}

// diffStores compares two stores canonically and returns the first
// divergence, or nil when equal. Empty collections are skipped: CreateModel
// materialises an empty collection eagerly, so "materialised empty" versus
// "never touched" is an implementation artifact, not an observable
// difference — no query distinguishes them.
func diffStores(a, b *store.DB) *divergence {
	names := map[string]bool{}
	for _, n := range nonEmptyCollections(a) {
		names[n] = true
	}
	for _, n := range nonEmptyCollections(b) {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		docsA, docsB := collectionDocs(a, name), collectionDocs(b, name)
		if len(docsA) != len(docsB) {
			return &divergence{
				collection: name,
				va:         fmt.Sprintf("%d document(s)", len(docsA)),
				vb:         fmt.Sprintf("%d document(s)", len(docsB)),
			}
		}
		// Both sides seed identical ids and advance the id counter past the
		// seeded ranges identically, so equal stores pair up by id.
		for i := range docsA {
			da, db := docsA[i], docsB[i]
			if da.ID() != db.ID() {
				return &divergence{
					collection: name,
					docID:      da.ID().String(),
					va:         "document " + da.ID().String(),
					vb:         "document " + db.ID().String(),
				}
			}
			if d := diffDocs(name, da, db); d != nil {
				return d
			}
		}
	}
	return nil
}

func nonEmptyCollections(db *store.DB) []string {
	var out []string
	for _, name := range db.CollectionNames() {
		if c, ok := db.Lookup(name); ok && c.Len() > 0 {
			out = append(out, name)
		}
	}
	return out
}

func collectionDocs(db *store.DB, name string) []store.Doc {
	c, ok := db.Lookup(name)
	if !ok {
		return nil
	}
	return c.Find() // in id order
}

func diffDocs(collection string, da, db store.Doc) *divergence {
	fields := map[string]bool{}
	for k := range da {
		fields[k] = true
	}
	for k := range db {
		fields[k] = true
	}
	sorted := make([]string, 0, len(fields))
	for k := range fields {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, f := range sorted {
		va, okA := da[f]
		vb, okB := db[f]
		ra, rb := "<absent>", "<absent>"
		if okA {
			ra = renderValue(va)
		}
		if okB {
			rb = renderValue(vb)
		}
		if ra != rb {
			return &divergence{collection: collection, docID: da.ID().String(), field: f, va: ra, vb: rb}
		}
	}
	return nil
}

// renderValue renders a store value canonically: sets as sorted multisets,
// so element order (an implementation artifact) never registers as a
// divergence.
func renderValue(v store.Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return fmt.Sprintf("%t", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case string:
		return fmt.Sprintf("%q", x)
	case store.ID:
		return x.String()
	case store.Optional:
		if !x.Present {
			return "None"
		}
		return "Some(" + renderValue(x.Value) + ")"
	case []store.Value:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = renderValue(e)
		}
		sort.Strings(parts)
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprintf("%v", x)
	}
}

// universeRecords renders the seeded universe as verify.Records for the
// counterexample's OTHER RECORDS section, so the report shows the exact
// store both sides started from.
func universeRecords(u seededUniverse) []verify.Record {
	var out []verify.Record
	for i, mu := range u.set.models {
		for j, vidx := range u.seq[i] {
			rec := verify.Record{
				Model: mu.name,
				ID:    (mu.baseID + store.ID(j+1)).String(),
			}
			rem := int64(vidx)
			vals := make([]string, len(mu.fields))
			for k := len(mu.fields) - 1; k >= 0; k-- {
				d := mu.fields[k]
				n := int64(len(d.values))
				vals[k] = renderValue(d.values[rem%n])
				rem /= n
			}
			for k, d := range mu.fields {
				rec.Fields = append(rec.Fields, verify.FieldValue{Name: d.name, Value: vals[k]})
			}
			out = append(out, rec)
		}
	}
	return out
}

// dataCounterexample packages a data-phase divergence: the diverging
// location under Target, the seeded universe under Others.
func dataCounterexample(a, b side, u seededUniverse, div *divergence, bound, idx int) *verify.Counterexample {
	loc := div.collection
	if div.docID != "" {
		loc += " " + div.docID
	}
	if div.field != "" {
		loc += "." + div.field
	}
	ce := &verify.Counterexample{
		Principal: fmt.Sprintf("universe #%d (%s, bound %d) diverges at %s", idx, u.describe(), bound, loc),
		Target: verify.Record{
			Model: div.collection,
			ID:    div.docID,
			Fields: []verify.FieldValue{
				{Name: a.name, Value: div.va},
				{Name: b.name, Value: div.vb},
			},
		},
		Others: universeRecords(u),
	}
	if div.field != "" {
		ce.Target.Fields = []verify.FieldValue{
			{Name: div.field, Value: fmt.Sprintf("%s: %s != %s: %s", a.name, div.va, b.name, div.vb)},
		}
	}
	return ce
}

// execCounterexample packages an execution divergence: exactly one side
// rejected the universe.
func execCounterexample(a, b side, u seededUniverse, errA, errB error, bound, idx int) *verify.Counterexample {
	render := func(err error) string {
		if err == nil {
			return "ok"
		}
		return "error: " + err.Error()
	}
	return &verify.Counterexample{
		Principal: fmt.Sprintf("universe #%d (%s, bound %d) diverges at $error", idx, u.describe(), bound),
		Target: verify.Record{
			Model: "$error",
			Fields: []verify.FieldValue{
				{Name: a.name, Value: render(errA)},
				{Name: b.name, Value: render(errB)},
			},
		},
		Others: universeRecords(u),
	}
}
