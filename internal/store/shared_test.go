package store

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestReadsNeverChange holds documents returned by every read path, then
// performs every kind of write, and requires each held document to be
// exactly as it was read: reads share stored documents, so writes must
// install new ones rather than edit them.
func TestReadsNeverChange(t *testing.T) {
	db := Open()
	c := db.Collection("User")
	c.EnsureIndex("tag")
	tags := []Value{"a", "b"}
	var ids []ID
	for i := 0; i < 6; i++ {
		ids = append(ids, c.Insert(Doc{
			"n": int64(i), "tag": "x", "tags": tags, "nick": Some([]Value{ID(7)}),
		}))
	}
	tags[0] = "caller edits its own slice after the insert"

	var held []Doc
	d, _ := c.Get(ids[0])
	held = append(held, d)
	held = append(held, c.Find()...)
	held = append(held, c.Find(Eq("tag", "x"))...)
	held = append(held, c.FindAfter(ids[1], 3)...)
	before := make([][]byte, len(held))
	for i, d := range held {
		before[i] = marshal(t, d)
	}

	newTags := []Value{"z"}
	if err := c.Update(ids[0], Doc{"n": int64(100), "tag": "y", "tags": newTags}); err != nil {
		t.Fatal(err)
	}
	newTags[0] = "caller edits its own slice after the update"
	if _, err := c.UpdateIfAbsent(ids[1], "bio", "hi"); err != nil {
		t.Fatal(err)
	}
	c.UpdateAll(nil, func(d Doc) Doc { return Doc{"n": d["n"].(int64) + 1} })
	c.RemoveField("nick")
	c.Delete(ids[2])
	if err := c.InsertWithID(ids[0]-1, Doc{"tag": "x"}); err != nil {
		t.Fatal(err)
	}
	c.EnsureIndex("n")
	db.DropCollection("User")

	for i, d := range held {
		if got := marshal(t, d); !bytes.Equal(got, before[i]) {
			t.Errorf("held document %v changed:\n was %s\n now %s", d.ID(), before[i], got)
		}
	}
	if got := held[0]["tags"].([]Value)[0]; got != "a" {
		t.Errorf("store kept the caller's insert slice: tags[0] = %v", got)
	}
}

// TestWritesTakeEffect checks the copy-on-write paths against fresh reads.
func TestWritesTakeEffect(t *testing.T) {
	db := Open()
	c := db.Collection("User")
	id := c.Insert(Doc{"n": int64(1), "nick": None()})
	v := []Value{"a"}
	if err := c.Update(id, Doc{"tags": v}); err != nil {
		t.Fatal(err)
	}
	v[0] = "caller edit"
	if wrote, _ := c.UpdateIfAbsent(id, "n", int64(9)); wrote {
		t.Error("UpdateIfAbsent overwrote a present field")
	}
	if wrote, _ := c.UpdateIfAbsent(id, "bio", "hi"); !wrote {
		t.Error("UpdateIfAbsent skipped an absent field")
	}
	c.RemoveField("nick")
	d, _ := c.Get(id)
	want := Doc{"id": id, "n": int64(1), "tags": []Value{"a"}, "bio": "hi"}
	if !bytes.Equal(marshal(t, d), marshal(t, want)) || d.ID() != id {
		t.Fatalf("got %v, want %v", d, want)
	}
}

func marshal(t *testing.T, d Doc) []byte {
	t.Helper()
	b, err := AppendDoc(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func docIDs(docs []Doc) []ID {
	out := make([]ID, len(docs))
	for i, d := range docs {
		out[i] = d.ID()
	}
	return out
}

// TestIDOrderUnderOutOfOrderInserts covers the cases where ids do not
// arrive in increasing order: explicit ids, deletes, and index buckets a
// write moves a document into.
func TestIDOrderUnderOutOfOrderInserts(t *testing.T) {
	db := Open()
	c := db.Collection("C")
	c.EnsureIndex("k")
	for _, id := range []ID{50, 10, 30, 20, 40} {
		if err := c.InsertWithID(id, Doc{"k": int64(id % 20)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := docIDs(c.Find()), []ID{10, 20, 30, 40, 50}; !slices.Equal(got, want) {
		t.Fatalf("Find: %v, want %v", got, want)
	}
	if got, want := docIDs(c.FindAfter(20, 2)), []ID{30, 40}; !slices.Equal(got, want) {
		t.Fatalf("FindAfter(20, 2): %v, want %v", got, want)
	}
	c.Delete(30)
	if got, want := docIDs(c.FindAfter(20, 1)), []ID{40}; !slices.Equal(got, want) {
		t.Fatalf("FindAfter across a delete: %v, want %v", got, want)
	}
	if got, want := docIDs(c.FindAfter(30, 0)), []ID{40, 50}; !slices.Equal(got, want) {
		t.Fatalf("FindAfter from a deleted watermark: %v, want %v", got, want)
	}
	if n := c.CountAfter(20); n != 2 {
		t.Fatalf("CountAfter(20) = %d, want 2", n)
	}
	// 50 moves into the k=0 bucket {20, 40}, then 10 joins it.
	c.Update(50, Doc{"k": int64(0)})
	c.Update(10, Doc{"k": int64(0)})
	if got, want := docIDs(c.Find(Eq("k", int64(0)))), []ID{10, 20, 40, 50}; !slices.Equal(got, want) {
		t.Fatalf("index bucket after updates: %v, want %v", got, want)
	}
}

// TestIDOrderProperty applies random mutations — explicit and allocated
// ids, updates that move documents between index buckets, deletes,
// field removal — and checks every read path against a model: Find and
// indexed Find in id order, FindAfter batches tiling the collection, and
// the same after a snapshot round trip.
func TestIDOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := Open()
		c := db.Collection("C")
		c.EnsureIndex("k")
		model := map[ID]int64{} // id -> k
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 3:
				id := ID(r.Intn(400) + 1)
				k := int64(r.Intn(4))
				if err := c.InsertWithID(id, Doc{"k": k}); err == nil {
					model[id] = k
				}
				db.AdvanceNextID(id)
			case op < 5:
				k := int64(r.Intn(4))
				model[c.Insert(Doc{"k": k})] = k
			case op < 7:
				if id, ok := pick(r, model); ok {
					k := int64(r.Intn(4))
					c.Update(id, Doc{"k": k, "step": int64(step)})
					model[id] = k
				}
			case op < 9:
				if id, ok := pick(r, model); ok {
					c.Delete(id)
					delete(model, id)
				}
			default:
				c.RemoveField("step")
			}
		}
		checkOrder(t, c, model)
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, back.Collection("C"), model)
	}
}

func pick(r *rand.Rand, model map[ID]int64) (ID, bool) {
	if len(model) == 0 {
		return Nil, false
	}
	ids := make([]ID, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[r.Intn(len(ids))], true
}

func checkOrder(t *testing.T, c *Collection, model map[ID]int64) {
	t.Helper()
	var all []ID
	byK := map[int64][]ID{}
	for id, k := range model {
		all = append(all, id)
		byK[k] = append(byK[k], id)
	}
	slices.Sort(all)
	if got := docIDs(c.Find()); !slices.Equal(got, all) {
		t.Fatalf("Find: %v, want %v", got, all)
	}
	for k := int64(0); k < 4; k++ {
		want := byK[k]
		slices.Sort(want)
		if got := docIDs(c.Find(Eq("k", k))); !slices.Equal(got, want) {
			t.Fatalf("Find(k=%d): %v, want %v", k, got, want)
		}
	}
	var swept []ID
	for after := Nil; ; {
		batch := c.FindAfter(after, 7)
		if len(batch) == 0 {
			break
		}
		if n := c.CountAfter(after); n != len(all)-len(swept) {
			t.Fatalf("CountAfter(%v) = %d, want %d", after, n, len(all)-len(swept))
		}
		swept = append(swept, docIDs(batch)...)
		after = batch[len(batch)-1].ID()
	}
	if !slices.Equal(swept, all) {
		t.Fatalf("FindAfter sweep: %v, want %v", swept, all)
	}
	if err := c.checkIndexInvariant(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(all))
	}
}
