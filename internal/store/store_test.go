package store

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	id := users.Insert(Doc{"name": "alice", "age": int64(30)})
	if id == Nil {
		t.Fatal("nil id")
	}
	d, ok := users.Get(id)
	if !ok {
		t.Fatal("not found")
	}
	if d["name"] != "alice" || d["age"] != int64(30) || d.ID() != id {
		t.Fatalf("doc: %v", d)
	}
}

func TestFindFilters(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	for i := 0; i < 10; i++ {
		users.Insert(Doc{"n": int64(i), "even": i%2 == 0})
	}
	if got := len(users.Find(Eq("even", true))); got != 5 {
		t.Errorf("even: %d", got)
	}
	if got := len(users.Find(Filter{Field: "n", Op: FilterGe, Value: int64(7)})); got != 3 {
		t.Errorf(">=7: %d", got)
	}
	if got := len(users.Find(Filter{Field: "n", Op: FilterLt, Value: int64(3)}, Eq("even", true))); got != 2 {
		t.Errorf("<3 and even: %d", got)
	}
	// Results are id-ordered.
	docs := users.Find()
	for i := 1; i < len(docs); i++ {
		if docs[i-1].ID() >= docs[i].ID() {
			t.Fatal("not sorted by id")
		}
	}
}

func TestContainsFilter(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	a := users.Insert(Doc{"followers": []Value{}})
	users.Update(a, Doc{"followers": []Value{ID(99)}})
	found := users.Find(Filter{Field: "followers", Op: FilterContains, Value: ID(99)})
	if len(found) != 1 || found[0].ID() != a {
		t.Fatalf("contains: %v", found)
	}
	if n := users.Count(Filter{Field: "followers", Op: FilterContains, Value: ID(1)}); n != 0 {
		t.Errorf("unexpected match: %d", n)
	}
}

func TestOptionalValues(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	id1 := users.Insert(Doc{"nick": Some("zed")})
	users.Insert(Doc{"nick": None()})
	found := users.Find(Eq("nick", Some("zed")))
	if len(found) != 1 || found[0].ID() != id1 {
		t.Fatalf("optional eq: %v", found)
	}
	found = users.Find(Eq("nick", None()))
	if len(found) != 1 {
		t.Fatalf("none eq: %v", found)
	}
}

func TestUpdate(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	id := users.Insert(Doc{"name": "alice"})
	if err := users.Update(id, Doc{"name": "bob", "id": ID(12345)}); err != nil {
		t.Fatal(err)
	}
	d, _ := users.Get(id)
	if d["name"] != "bob" {
		t.Error("update lost")
	}
	if d.ID() != id {
		t.Error("id must be immutable")
	}
	if err := users.Update(ID(777777), Doc{"name": "x"}); err == nil {
		t.Error("update of missing doc must fail")
	}
}

func TestUpdateAllAndRemoveField(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	for i := 0; i < 4; i++ {
		users.Insert(Doc{"isAdmin": i == 0})
	}
	n := users.UpdateAll(nil, func(d Doc) Doc {
		level := int64(0)
		if d["isAdmin"] == true {
			level = 2
		}
		return Doc{"adminLevel": level}
	})
	if n != 4 {
		t.Fatalf("updated %d", n)
	}
	if got := users.Count(Eq("adminLevel", int64(2))); got != 1 {
		t.Errorf("admins: %d", got)
	}
	users.RemoveField("isAdmin")
	for _, d := range users.Find() {
		if _, ok := d["isAdmin"]; ok {
			t.Fatal("isAdmin not removed")
		}
	}
}

func TestDelete(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	id := users.Insert(Doc{})
	if !users.Delete(id) {
		t.Fatal("delete failed")
	}
	if users.Delete(id) {
		t.Fatal("double delete succeeded")
	}
	if users.Len() != 0 {
		t.Fatal("len != 0")
	}
}

func TestIDsUniqueAcrossCollections(t *testing.T) {
	db := Open()
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		id := db.Collection(fmt.Sprintf("C%d", i%3)).Insert(Doc{})
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := Open()
	users := db.Collection("User")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := users.Insert(Doc{"w": int64(w)})
				users.Get(id)
				users.Find(Eq("w", int64(w)))
				users.Update(id, Doc{"i": int64(i)})
				if i%3 == 0 {
					users.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDropCollection(t *testing.T) {
	db := Open()
	db.Collection("A").Insert(Doc{})
	db.DropCollection("A")
	if db.Collection("A").Len() != 0 {
		t.Fatal("collection not dropped")
	}
}

// Property: inserting n docs yields n distinct ids and Find() returns all.
func TestInsertFindProperty(t *testing.T) {
	f := func(names []string) bool {
		if len(names) > 50 {
			names = names[:50]
		}
		db := Open()
		c := db.Collection("X")
		ids := map[ID]bool{}
		for _, n := range names {
			ids[c.Insert(Doc{"name": n})] = true
		}
		if len(ids) != len(names) {
			return false
		}
		return len(c.Find()) == len(names)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: numeric filters partition the collection.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(vals []int64, pivot int64) bool {
		db := Open()
		c := db.Collection("X")
		for _, v := range vals {
			c.Insert(Doc{"v": v})
		}
		lt := c.Count(Filter{Field: "v", Op: FilterLt, Value: pivot})
		ge := c.Count(Filter{Field: "v", Op: FilterGe, Value: pivot})
		return lt+ge == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
