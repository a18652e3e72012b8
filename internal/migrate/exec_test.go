package migrate

import (
	"math"
	"strings"
	"testing"
	"time"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/store"
)

func parseScript(src string) (*ast.MigrationScript, error) {
	return parser.ParseMigration(src)
}

// verifyExec verifies script against s and executes the plan on db: Apply
// without the journal.
func verifyExec(s *schema.Schema, script *ast.MigrationScript, db *store.DB) (*schema.Schema, error) {
	plan, err := Verify(s, script, DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := ExecuteFromAt(plan, db, nil, JournalEntry{AppliedAt: time.Now().Unix()}, DefaultOptions(), nil, nil); err != nil {
		return nil, err
	}
	return plan.After, nil
}

// seedChitter populates a database matching chitterBase.
func seedChitter(t *testing.T, db *store.DB) (alice, bob, admin store.ID) {
	t.Helper()
	users := db.Collection("User")
	mk := func(name string, isAdmin bool) store.ID {
		return users.Insert(store.Doc{
			"name": name, "email": name + "@x", "pronouns": "they/them",
			"isAdmin": isAdmin, "followers": []store.Value{},
		})
	}
	alice = mk("alice", false)
	bob = mk("bob", false)
	admin = mk("root", true)
	return
}

func TestExecuteAddFieldPopulates(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	alice, _, _ := seedChitter(t, db)

	script, err := parseScript(`
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := verifyExec(s, script, db)
	if err != nil {
		t.Fatal(err)
	}
	if after.Model("User").Field("bio") == nil {
		t.Fatal("schema missing bio")
	}
	doc, _ := db.Collection("User").Get(alice)
	if doc["bio"] != "I'm alice" {
		t.Fatalf("bio = %v", doc["bio"])
	}
}

func TestExecuteModeratorMigration(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	alice, _, admin := seedChitter(t, db)

	script, err := parseScript(`
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);
User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2}),
  write: u -> [u] + User::Find({adminLevel: 2})
});
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := verifyExec(s, script, db)
	if err != nil {
		t.Fatal(err)
	}
	adminDoc, _ := db.Collection("User").Get(admin)
	if adminDoc["adminLevel"] != int64(2) {
		t.Errorf("admin level: %v", adminDoc["adminLevel"])
	}
	aliceDoc, _ := db.Collection("User").Get(alice)
	if aliceDoc["adminLevel"] != int64(0) {
		t.Errorf("alice level: %v", aliceDoc["adminLevel"])
	}
	if after.Model("User").Field("adminLevel") == nil {
		t.Error("schema missing adminLevel")
	}
}

func TestExecuteRemoveField(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	alice, _, _ := seedChitter(t, db)

	// pronouns is referenced by no other policy; its own policies go with it.
	script, err := parseScript(`User::RemoveField(pronouns);`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := verifyExec(s, script, db)
	if err != nil {
		t.Fatal(err)
	}
	if after.Model("User").Field("pronouns") != nil {
		t.Error("schema still has pronouns")
	}
	doc, _ := db.Collection("User").Get(alice)
	if _, ok := doc["pronouns"]; ok {
		t.Error("data still has pronouns")
	}
}

func TestExecuteDeleteModelDropsData(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	seedChitter(t, db)
	script, err := parseScript(`
CreateModel(Peep {
  create: public,
  delete: none,
  body: String { read: public, write: none },
});
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := verifyExec(s, script, db)
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("Peep").Insert(store.Doc{"body": "hi"})

	script2, err := parseScript(`DeleteModel(Peep);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyExec(after, script2, db); err != nil {
		t.Fatal(err)
	}
	if db.Collection("Peep").Len() != 0 {
		t.Error("peep data survived model deletion")
	}
}

func TestExecuteAddSetField(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	alice, _, _ := seedChitter(t, db)
	script, err := parseScript(`
User::AddField(blocked : Set(Id(User)) {
  read: u -> [u],
  write: u -> [u]
}, _ -> []);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyExec(s, script, db); err != nil {
		t.Fatal(err)
	}
	doc, _ := db.Collection("User").Get(alice)
	set, ok := doc["blocked"].([]store.Value)
	if !ok || len(set) != 0 {
		t.Fatalf("blocked = %#v", doc["blocked"])
	}
}

func TestExecuteAddOptionField(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	alice, _, _ := seedChitter(t, db)
	script, err := parseScript(`
User::AddField(nickname : Option(String) {
  read: public,
  write: u -> [u]
}, _ -> None);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyExec(s, script, db); err != nil {
		t.Fatal(err)
	}
	doc, _ := db.Collection("User").Get(alice)
	opt, ok := doc["nickname"].(store.Optional)
	if !ok || opt.Present {
		t.Fatalf("nickname = %#v", doc["nickname"])
	}
}

// TestAddFieldRefusesNaNInitialiser: the ORM stores +Inf, and p.score -
// p.score on it is NaN, which compares equal to every number. Both
// executors must refuse the initialiser's result and store no NaN.
func TestAddFieldRefusesNaNInitialiser(t *testing.T) {
	s := loadSchema(t, `
Post {
  create: public,
  delete: none,
  score: F64 { read: public, write: public }}
`)
	const script = `Post::AddField(d: F64 { read: public, write: public }, p -> p.score - p.score);`
	for name, online := range map[string]bool{"stop-the-world": false, "online": true} {
		t.Run(name, func(t *testing.T) {
			db := store.Open()
			conn := orm.Open(s, db)
			pr := conn.AsPrinc(eval.StaticPrincipal("anyone"))
			for _, score := range []float64{1, math.Inf(1)} {
				if _, err := pr.Insert("Post", store.Doc{"score": score}); err != nil {
					t.Fatal(err)
				}
			}
			opts := DefaultOptions()
			opts.Online = online
			if _, err := Apply(conn, "001_d", script, opts); err == nil || !strings.Contains(err.Error(), "NaN") {
				t.Fatalf("Apply = %v, want a NaN error", err)
			}
			for _, doc := range db.Collection("Post").Find() {
				if v, ok := doc["d"]; ok && v.(float64) != v.(float64) {
					t.Fatalf("%v stored a NaN", doc.ID())
				}
			}
		})
	}
}
