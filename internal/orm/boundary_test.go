package orm

import (
	"testing"

	"scooter/internal/store"
)

// TestObjectValuesAreCopies mutates everything an Object hands out — set
// elements from Get and Fields, and the keys of the Fields map — and
// requires the store, the Object and later reads to be unaffected, with
// enforcement on and off. Objects share values with the store, so the copy
// at the Object boundary is what keeps application code from writing into
// the database without a write policy.
func TestObjectValuesAreCopies(t *testing.T) {
	for _, enforce := range []bool{true, false} {
		fx := newFixture(t)
		fx.conn.SetEnforcement(enforce)
		alice := fx.conn.AsPrinc(user(fx.alice))
		before, _ := fx.conn.DB.Collection("User").Get(fx.alice)
		want, err := store.AppendDoc(nil, before)
		if err != nil {
			t.Fatal(err)
		}

		obj, err := alice.FindByID("User", fx.alice)
		if err != nil || obj == nil {
			t.Fatalf("enforce=%t: FindByID: %v %v", enforce, obj, err)
		}
		objs, err := alice.Find("User", store.Eq("name", "alice"))
		if err != nil || len(objs) != 1 {
			t.Fatalf("enforce=%t: Find: %v %v", enforce, objs, err)
		}
		for _, o := range []*Object{obj, objs[0]} {
			v, ok := o.Get("followers")
			if !ok {
				t.Fatalf("enforce=%t: alice cannot read her followers", enforce)
			}
			v.([]store.Value)[0] = store.ID(666)
			fields := o.Fields()
			fields["followers"].([]store.Value)[0] = store.ID(667)
			fields["name"] = "mallory"
			delete(fields, "email")
			if v, _ := o.Get("followers"); v.([]store.Value)[0] != fx.bob {
				t.Errorf("enforce=%t: Object changed through a returned set: %v", enforce, v)
			}
			if f := o.Fields(); f["name"] != "alice" || f["email"] == nil {
				t.Errorf("enforce=%t: Object changed through a returned map: %v", enforce, f)
			}
		}

		after, _ := fx.conn.DB.Collection("User").Get(fx.alice)
		got, err := store.AppendDoc(nil, after)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("enforce=%t: store changed through an Object:\n was %v\n now %v", enforce, before, after)
		}
	}
}

// TestOptionalSetCopiedOut covers the other mutable value shape: an
// Optional wrapping a set.
func TestOptionalSetCopiedOut(t *testing.T) {
	o := &Object{
		fields: newFixture(t).conn.Schema().Model("User").Fields[:1],
		vals:   []slot{{v: store.Some([]store.Value{"a"}), readable: true}},
	}
	name := o.fields[0].Name
	v, _ := o.Get(name)
	v.(store.Optional).Value.([]store.Value)[0] = "b"
	o.Fields()[name].(store.Optional).Value.([]store.Value)[0] = "c"
	if v, _ := o.Get(name); v.(store.Optional).Value.([]store.Value)[0] != "a" {
		t.Fatalf("shared Optional set changed: %v", v)
	}
}
