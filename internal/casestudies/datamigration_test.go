package casestudies

import (
	"testing"
	"time"

	"scooter/internal/eval"
	"scooter/internal/migrate"
	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// TestLearnByHackingTagBackfill demonstrates the paper's §6.2 workaround
// for the one migration action Scooter cannot express: the Learn-by-Hacking
// migration that queries posts and creates a database of existing tag
// objects. Data migrations run at the application level through the ORM, so
// every access is policy-checked; here the backfill runs as a moderator
// after the corpus migrations have executed.
func TestLearnByHackingTagBackfill(t *testing.T) {
	studies, err := Studies()
	if err != nil {
		t.Fatal(err)
	}
	var lbh *Study
	for _, s := range studies {
		if s.Key == "lbh" {
			lbh = s
		}
	}
	if lbh == nil {
		t.Fatal("lbh corpus missing")
	}
	// Build the schema and execute the scripts against a database.
	db := store.Open()
	cur, plans, err := lbh.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = plans
	// Seed a user and posts with tags before "running" the backfill. (In
	// the real history the posts predate migration 2; seeding after
	// executing all migrations produces the same state.)
	author := db.Collection("User").Insert(store.Doc{
		"name": "ann", "email": "a@x", "bio": "",
	})
	posts := db.Collection("Post")
	posts.Insert(store.Doc{
		"author": author, "title": "intro", "body": "...", "published": true,
		"tags": []store.Value{"go", "security"}, "createdAt": int64(1000),
	})
	posts.Insert(store.Doc{
		"author": author, "title": "part 2", "body": "...", "published": true,
		"tags": []store.Value{"security", "smt"}, "createdAt": int64(2000),
	})

	// Application-level migration: create the Tag model first (a normal,
	// verifiable migration)...
	conn := orm.Open(cur, db)
	cur2, err := applyScript(t, cur, db, `
CreateModel(Tag {
  create: _ -> [Moderator],
  delete: _ -> [Moderator],
  name: String { read: public, write: none },
});
`)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetSchema(cur2)

	// ...then backfill through the ORM as the Moderator principal. Every
	// read and insert is policy-checked.
	mod := conn.AsPrinc(eval.StaticPrincipal("Moderator"))
	postObjs, err := mod.Find("Post")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range postObjs {
		tags, ok := p.Get("tags")
		if !ok {
			t.Fatal("tags must be readable (public)")
		}
		for _, tag := range tags.([]store.Value) {
			name := tag.(string)
			if seen[name] {
				continue
			}
			seen[name] = true
			if _, err := mod.Insert("Tag", store.Doc{"name": name}); err != nil {
				t.Fatalf("moderator may create tags: %v", err)
			}
		}
	}
	if got := db.Collection("Tag").Len(); got != 3 {
		t.Fatalf("distinct tags: %d, want 3", got)
	}

	// A regular user cannot run the same backfill: Tag.create is
	// moderator-only.
	user := conn.AsPrinc(eval.InstancePrincipal("User", author))
	if _, err := user.Insert("Tag", store.Doc{"name": "rogue"}); err == nil {
		t.Fatal("regular users may not create tags")
	}
}

// applyScript verifies and executes a script against a schema + database.
func applyScript(t *testing.T, cur *schema.Schema, db *store.DB, src string) (*schema.Schema, error) {
	t.Helper()
	script, err := parser.ParseMigration(src)
	if err != nil {
		return nil, err
	}
	plan, err := migrate.Verify(cur, script, migrate.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := migrate.ExecuteFromAt(plan, db, nil, migrate.JournalEntry{AppliedAt: time.Now().Unix()}, migrate.DefaultOptions(), nil, nil); err != nil {
		return nil, err
	}
	return plan.After, nil
}
