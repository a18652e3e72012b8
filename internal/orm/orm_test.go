package orm

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/store"
	"scooter/internal/typer"
)

const chitterSpec = `
@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] }}

Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] }}
`

type fixture struct {
	conn  *Conn
	alice store.ID // regular user
	bob   store.ID // follower of alice
	admin store.ID
}

// parseSpec returns a freshly parsed and checked schema: every call
// yields a distinct schema pointer.
func parseSpec(t *testing.T, src string) *schema.Schema {
	t.Helper()
	f, err := parser.ParsePolicyFile(src)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := parseSpec(t, chitterSpec)
	db := store.Open()
	users := db.Collection("User")
	mk := func(name string, admin bool) store.ID {
		return users.Insert(store.Doc{
			"name": name, "email": name + "@chitter.io", "pronouns": "they/them",
			"isAdmin": admin, "followers": []store.Value{},
		})
	}
	fx := &fixture{conn: Open(s, db)}
	fx.alice = mk("alice", false)
	fx.bob = mk("bob", false)
	fx.admin = mk("root", true)
	// bob follows alice.
	users.Update(fx.alice, store.Doc{"followers": []store.Value{fx.bob}})
	return fx
}

func user(id store.ID) Principal { return eval.InstancePrincipal("User", id) }

func TestReadPoliciesStripFields(t *testing.T) {
	fx := newFixture(t)
	// Bob reads alice: sees name (public) and pronouns (follower), not email.
	obj, err := fx.conn.AsPrinc(user(fx.bob)).FindByID("User", fx.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get("name"); !ok {
		t.Error("name is public")
	}
	if _, ok := obj.Get("pronouns"); !ok {
		t.Error("bob follows alice and should see pronouns")
	}
	if _, ok := obj.Get("email"); ok {
		t.Error("email must be stripped for bob")
	}

	// Alice reads herself: sees everything.
	obj, err = fx.conn.AsPrinc(user(fx.alice)).FindByID("User", fx.alice)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"name", "email", "pronouns", "isAdmin", "followers"} {
		if _, ok := obj.Get(field); !ok {
			t.Errorf("alice should see her own %s", field)
		}
	}

	// Admin sees alice's email but not her pronouns (not a follower).
	obj, err = fx.conn.AsPrinc(user(fx.admin)).FindByID("User", fx.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get("email"); !ok {
		t.Error("admins read all emails")
	}
	if _, ok := obj.Get("pronouns"); ok {
		t.Error("admin is not a follower; pronouns are hidden")
	}
}

func TestUnauthenticatedReads(t *testing.T) {
	fx := newFixture(t)
	obj, err := fx.conn.AsPrinc(eval.StaticPrincipal("Unauthenticated")).FindByID("User", fx.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get("name"); !ok {
		t.Error("name is public")
	}
	for _, hidden := range []string{"email", "pronouns", "isAdmin", "followers"} {
		if _, ok := obj.Get(hidden); ok {
			t.Errorf("%s must be hidden from Unauthenticated", hidden)
		}
	}
}

func TestWritePolicies(t *testing.T) {
	fx := newFixture(t)
	alice := fx.conn.AsPrinc(user(fx.alice))
	bob := fx.conn.AsPrinc(user(fx.bob))
	admin := fx.conn.AsPrinc(user(fx.admin))

	// Alice edits her own email: allowed.
	if err := alice.Update("User", fx.alice, store.Doc{"email": "new@chitter.io"}); err != nil {
		t.Fatal(err)
	}
	// Bob edits alice's email: rejected.
	err := bob.Update("User", fx.alice, store.Doc{"email": "evil@x"})
	var perr *PolicyError
	if !errors.As(err, &perr) {
		t.Fatalf("expected PolicyError, got %v", err)
	}
	if perr.Field != "email" {
		t.Errorf("blamed field %s", perr.Field)
	}
	// Admin edits alice's name: allowed (admins are in the name write set).
	if err := admin.Update("User", fx.alice, store.Doc{"name": "Alice"}); err != nil {
		t.Fatal(err)
	}
	// Alice promotes herself: rejected (only admins write isAdmin).
	if err := alice.Update("User", fx.alice, store.Doc{"isAdmin": true}); err == nil {
		t.Fatal("privilege escalation permitted")
	}
	// Admin promotes alice: allowed.
	if err := admin.Update("User", fx.alice, store.Doc{"isAdmin": true}); err != nil {
		t.Fatal(err)
	}
	// Now alice (an admin) can edit bob's name.
	if err := alice.Update("User", fx.bob, store.Doc{"name": "Bobby"}); err != nil {
		t.Fatal(err)
	}
}

func TestCreatePolicies(t *testing.T) {
	fx := newFixture(t)
	// Only Unauthenticated may create users.
	_, err := fx.conn.AsPrinc(user(fx.alice)).Insert("User", store.Doc{
		"name": "eve", "email": "e@x", "pronouns": "", "isAdmin": false,
		"followers": []store.Value{},
	})
	if err == nil {
		t.Fatal("logged-in users may not create accounts")
	}
	id, err := fx.conn.AsPrinc(eval.StaticPrincipal("Unauthenticated")).Insert("User", store.Doc{
		"name": "eve", "email": "e@x", "pronouns": "", "isAdmin": false,
		"followers": []store.Value{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id == store.Nil {
		t.Fatal("no id")
	}

	// Peeps: create policy is p -> [p.author] — author must be the creator.
	_, err = fx.conn.AsPrinc(user(fx.bob)).Insert("Peep", store.Doc{
		"author": fx.alice, "body": "spoofed",
	})
	if err == nil {
		t.Fatal("bob cannot create a peep authored by alice")
	}
	_, err = fx.conn.AsPrinc(user(fx.bob)).Insert("Peep", store.Doc{
		"author": fx.bob, "body": "hello world",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeletePolicies(t *testing.T) {
	fx := newFixture(t)
	bob := fx.conn.AsPrinc(user(fx.bob))
	admin := fx.conn.AsPrinc(user(fx.admin))
	peep, err := bob.Insert("Peep", store.Doc{"author": fx.bob, "body": "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Alice may not delete bob's peep.
	if err := fx.conn.AsPrinc(user(fx.alice)).Delete("Peep", peep); err == nil {
		t.Fatal("alice may not delete bob's peep")
	}
	// Admin may.
	if err := admin.Delete("Peep", peep); err != nil {
		t.Fatal(err)
	}
	// Users can never be deleted (delete: none).
	if err := admin.Delete("User", fx.alice); err == nil {
		t.Fatal("users are undeletable")
	}
}

func TestFindStripsAndHides(t *testing.T) {
	fx := newFixture(t)
	// Finding by isAdmin as bob: isAdmin is unreadable on other users, so
	// matching documents other than bob are hidden.
	objs, err := fx.conn.AsPrinc(user(fx.bob)).Find("User", store.Eq("isAdmin", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].ID != fx.bob {
		t.Fatalf("bob should only see himself through an isAdmin query, got %d", len(objs))
	}
	// Public field queries see everyone.
	objs, err = fx.conn.AsPrinc(user(fx.bob)).Find("User", store.Eq("name", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("name is public: %d", len(objs))
	}
}

func TestMissingDocIndistinguishable(t *testing.T) {
	fx := newFixture(t)
	obj, err := fx.conn.AsPrinc(user(fx.bob)).FindByID("User", store.ID(99999))
	if err != nil || obj != nil {
		t.Fatalf("missing doc: obj=%v err=%v", obj, err)
	}
}

func TestEnforcementToggle(t *testing.T) {
	fx := newFixture(t)
	fx.conn.SetEnforcement(false)
	obj, err := fx.conn.AsPrinc(user(fx.bob)).FindByID("User", fx.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get("email"); !ok {
		t.Error("enforcement off: all fields visible")
	}
	fx.conn.SetEnforcement(true)
	obj, _ = fx.conn.AsPrinc(user(fx.bob)).FindByID("User", fx.alice)
	if _, ok := obj.Get("email"); ok {
		t.Error("enforcement back on: email hidden")
	}
}

func TestInsertRequiresAllFields(t *testing.T) {
	fx := newFixture(t)
	_, err := fx.conn.AsPrinc(eval.StaticPrincipal("Unauthenticated")).Insert("User", store.Doc{
		"name": "incomplete",
	})
	if err == nil {
		t.Fatal("partial insert must fail")
	}
}

func TestSetFieldPolicy(t *testing.T) {
	fx := newFixture(t)
	alice := fx.conn.AsPrinc(user(fx.alice))
	bob := fx.conn.AsPrinc(user(fx.bob))
	// Alice updates her followers: allowed (write: u -> [u]).
	if err := alice.Update("User", fx.alice, store.Doc{"followers": []store.Value{fx.bob, fx.admin}}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot update alice's followers.
	if err := bob.Update("User", fx.alice, store.Doc{"followers": []store.Value{}}); err == nil {
		t.Fatal("bob cannot edit alice's followers")
	}
}

// TestIntegerComparisonsAreExact is the regression for comparing I64
// values through float64, where 2^53 and 2^53+1 are the same number. The
// body policy equals [p.author] over the integers, so a non-author must
// never read it; with a float comparison both tests hold at score = 2^53
// and the policy turns public. The evaluator and store filters share
// store.CompareNumeric.
func TestIntegerComparisonsAreExact(t *testing.T) {
	s := parseSpec(t, `
@principal
User {
  create: public,
  delete: none,
  name: String { read: public, write: none }}

Post {
  create: public,
  delete: none,
  author: Id(User) { read: public, write: none },
  score: I64 { read: public, write: public },
  body: String {
    read: p -> if p.score >= 9007199254740993 then (if p.score <= 9007199254740992 then public else [p.author]) else [p.author],
    write: none }}
`)
	db := store.Open()
	author := db.Collection("User").Insert(store.Doc{"name": "author"})
	reader := db.Collection("User").Insert(store.Doc{"name": "reader"})
	post := db.Collection("Post").Insert(store.Doc{"author": author, "score": int64(1 << 53), "body": "secret"})
	obj, err := Open(s, db).AsPrinc(user(reader)).FindByID("Post", post)
	if err != nil || obj == nil {
		t.Fatalf("FindByID: %v, %v", obj, err)
	}
	if body, ok := obj.Get("body"); ok {
		t.Fatalf("a non-author read body %q at score 2^53", body)
	}
	// Store filters order integers exactly too.
	if got := db.Collection("Post").Find(store.Filter{Field: "score", Op: store.FilterGe, Value: int64(1<<53 + 1)}); len(got) != 0 {
		t.Fatalf("score >= 2^53+1 matched a post scored 2^53: %v", got)
	}
}

// TestWritesRefuseNaN pins the write boundary: CompareNumeric holds a NaN
// equal to every number, so a stored NaN would satisfy p.score == 5.0 and
// any other equality a policy tests. Insert and Update refuse a NaN
// anywhere in a value, inside an Optional or a set too, and leave the
// store as it was.
func TestWritesRefuseNaN(t *testing.T) {
	s := parseSpec(t, `
Post {
  create: public,
  delete: none,
  score: F64 { read: public, write: public },
  bonus: Option(F64) { read: public, write: public },
  marks: Set(F64) { read: public, write: public }}
`)
	db := store.Open()
	pr := Open(s, db).AsPrinc(eval.StaticPrincipal("anyone"))
	nan := math.NaN()
	good := store.Doc{"score": 1.0, "bonus": store.None(), "marks": []store.Value{2.0}}
	id, err := pr.Insert("Post", good)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.Collection("Post").Get(id)
	for name, bad := range map[string]store.Doc{
		"plain":    {"score": nan},
		"optional": {"bonus": store.Some(nan)},
		"set":      {"marks": []store.Value{3.0, nan}},
	} {
		doc := store.Doc{}
		for k, v := range good {
			doc[k] = v
		}
		for k, v := range bad {
			doc[k] = v
		}
		if _, err := pr.Insert("Post", doc); err == nil {
			t.Errorf("%s: Insert stored a NaN", name)
		}
		if err := pr.Update("Post", id, bad); err == nil {
			t.Errorf("%s: Update stored a NaN", name)
		}
	}
	if n := db.Collection("Post").Count(); n != 1 {
		t.Fatalf("store holds %d posts after refused inserts, want 1", n)
	}
	if after, _ := db.Collection("Post").Get(id); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused updates changed the post: %v -> %v", before, after)
	}
}
