package migrate

import (
	"path/filepath"
	"strings"
	"testing"

	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/store"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

func loadSchema(t *testing.T, src string) *schema.Schema {
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

func runScript(t *testing.T, s *schema.Schema, src string) (*Plan, error) {
	t.Helper()
	script, err := parser.ParseMigration(src)
	if err != nil {
		t.Fatalf("parse migration: %v", err)
	}
	return Verify(s, script, DefaultOptions())
}

const chitterBase = `
@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] + User::Find({isAdmin: true}) },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) }}
`

// TestBootstrapFromEmpty builds a schema from scratch via CreateModel, the
// §3.2 bestFriend/secret example.
func TestBootstrapFromEmpty(t *testing.T) {
	s := schema.New()
	plan, err := runScript(t, s, `
CreateModel(@principal User {
  create: public,
  delete: u -> [u.id],
});
User::AddField(bestFriend: Id(User) {
  read: public,
  write: u -> [u.id],
}, u -> u.id);
User::AddField(secret: String {
  read: u -> [u.id, u.bestFriend],
  write: u -> [u.id],
}, _ -> "my_secret");
`)
	if err != nil {
		t.Fatal(err)
	}
	u := plan.After.Model("User")
	if u == nil || !u.Principal || len(u.Fields) != 2 {
		t.Fatalf("schema after: %+v", plan.After)
	}
	if len(plan.Reports) != 3 {
		t.Errorf("reports: %d", len(plan.Reports))
	}
}

// TestAddFieldOrderMatters checks §3.2: AddField before CreateModel fails.
func TestAddFieldOrderMatters(t *testing.T) {
	s := schema.New()
	_, err := runScript(t, s, `
User::AddField(secret: String { read: public, write: none }, _ -> "x");
`)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("expected missing-model error, got %v", err)
	}
}

// TestChitterBioLeakRejected reproduces the §2.1 unsafe schema migration.
func TestChitterBioLeakRejected(t *testing.T) {
	s := loadSchema(t, chitterBase)
	_, err := runScript(t, s, `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name + "(" + u.pronouns + ")");
`)
	if err == nil {
		t.Fatal("the bio migration leaks pronouns and must be rejected")
	}
	uerr, ok := err.(*UnsafeError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if uerr.Flow == nil || uerr.Flow.SrcField != "pronouns" {
		t.Errorf("flow: %v", uerr.Flow)
	}
	if uerr.Result == nil || uerr.Result.Counterexample == nil {
		t.Error("expected counterexample")
	}
}

// TestChitterBioFixedAccepted checks the corrected migration (no pronouns).
func TestChitterBioFixedAccepted(t *testing.T) {
	s := loadSchema(t, chitterBase)
	plan, err := runScript(t, s, `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.After.Model("User").Field("bio") == nil {
		t.Fatal("bio not added")
	}
}

// TestChitterModeratorScript reproduces the full §2.2 migration: the
// adminLevel field is added with a defining initialiser, the email policy
// update verifies via prior definitions, but the bio write weakening is
// rejected.
func TestChitterModeratorScript(t *testing.T) {
	s := loadSchema(t, chitterBase)
	// First add a bio field so the script below can update its policy.
	plan, err := runScript(t, s, `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
`)
	if err != nil {
		t.Fatal(err)
	}
	s = plan.After

	_, err = runScript(t, s, `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);

User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2}),
  write: u -> [u] + User::Find({adminLevel: 2})
});
User::UpdateFieldWritePolicy(bio,
  u -> [u] + User::Find({adminLevel >= 0}));
`)
	if err == nil {
		t.Fatal("the bio weakening (adminLevel >= 0) must be rejected")
	}
	if !strings.Contains(err.Error(), "bio") {
		t.Errorf("error should blame bio: %v", err)
	}

	// The explicit weakening with the correct moderator policy passes.
	plan, err = runScript(t, s, `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);

User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2}),
  write: u -> [u] + User::Find({adminLevel: 2})
});
User::WeakenFieldWritePolicy(bio,
  u -> [u] + User::Find({adminLevel > 0}),
  "Reason: allow moderators to update bios.");
`)
	if err != nil {
		t.Fatal(err)
	}
	var weakenReport *CommandReport
	for i := range plan.Reports {
		if plan.Reports[i].Weakened {
			weakenReport = &plan.Reports[i]
		}
	}
	if weakenReport == nil || !strings.Contains(weakenReport.Reason, "moderators") {
		t.Error("weakening must be recorded with its reason")
	}
}

// TestPriorDefinitionsAcrossScriptBoundary: §6.4 — the equivalence is only
// valid within one script; splitting it across two scripts fails.
func TestPriorDefinitionsAcrossScriptBoundary(t *testing.T) {
	s := loadSchema(t, chitterBase)
	plan, err := runScript(t, s, `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);
`)
	if err != nil {
		t.Fatal(err)
	}
	// Second script: email update relying on the (now expired) equivalence.
	_, err = runScript(t, plan.After, `
User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2})
});
`)
	if err == nil {
		t.Fatal("equivalences do not survive script boundaries (§6.4)")
	}
}

func TestRemoveFieldReferencedRejected(t *testing.T) {
	s := schema.New()
	plan, err := runScript(t, s, `
CreateModel(@principal User {
  create: public,
  delete: none,
});
User::AddField(author: Id(User) { read: public, write: none }, u -> u.id);
User::AddField(body: String { read: public, write: p -> [p.author] }, _ -> "");
`)
	if err != nil {
		t.Fatal(err)
	}
	// body's write policy references author.
	_, err = runScript(t, plan.After, `User::RemoveField(author);`)
	if err == nil || !strings.Contains(err.Error(), "referenced") {
		t.Fatalf("expected reference error, got %v", err)
	}
	// Removing body first, then author, works.
	_, err = runScript(t, plan.After, `
User::RemoveField(body);
User::RemoveField(author);
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteModelReferencedRejected(t *testing.T) {
	s := loadSchema(t, chitterBase)
	plan, err := runScript(t, s, `
CreateModel(Peep {
  create: public,
  delete: p -> [p.author],
  author: Id(User) { read: public, write: none },
});
`)
	if err != nil {
		t.Fatal(err)
	}
	// User is referenced by Peep (author field + policies).
	_, err = runScript(t, plan.After, `DeleteModel(User);`)
	if err == nil {
		t.Fatal("User is referenced by Peep")
	}
	// Peep can be deleted (self references only).
	if _, err := runScript(t, plan.After, `DeleteModel(Peep);`); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveStaticPrincipalReferencedRejected(t *testing.T) {
	s := loadSchema(t, chitterBase)
	_, err := runScript(t, s, `RemoveStaticPrincipal(Unauthenticated);`)
	if err == nil {
		t.Fatal("Unauthenticated is used in User.create")
	}
	// After replacing the create policy, removal succeeds.
	plan, err := runScript(t, s, `
User::UpdatePolicy(create, none);
RemoveStaticPrincipal(Unauthenticated);
`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.After.HasStatic("Unauthenticated") {
		t.Error("static principal should be gone")
	}
}

func TestUpdatePolicyRequiresStrictness(t *testing.T) {
	s := loadSchema(t, chitterBase)
	// create: _ -> [Unauthenticated] to public is a weakening.
	_, err := runScript(t, s, `User::UpdatePolicy(create, public);`)
	if err == nil {
		t.Fatal("weakening create must be rejected")
	}
	// to none is a strengthening.
	if _, err := runScript(t, s, `User::UpdatePolicy(create, none);`); err != nil {
		t.Fatal(err)
	}
	// WeakenPolicy without reason is rejected.
	_, err = runScript(t, s, `User::WeakenPolicy(create, public);`)
	if err == nil || !strings.Contains(err.Error(), "reason") {
		t.Fatalf("expected reason requirement, got %v", err)
	}
	// WeakenPolicy with reason passes.
	if _, err := runScript(t, s, `User::WeakenPolicy(create, public, "open signups");`); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := loadSchema(t, chitterBase)
	text := specfmt.Format(s)
	f2, err := parser.ParsePolicyFile(text)
	if err != nil {
		t.Fatalf("spec does not re-parse: %v\n%s", err, text)
	}
	s2 := schema.FromPolicyFile(f2)
	if err := typer.New(s2).CheckSchema(); err != nil {
		t.Fatalf("re-parsed spec does not typecheck: %v", err)
	}
	if len(s2.Models) != len(s.Models) || len(s2.Statics) != len(s.Statics) {
		t.Error("model/static counts changed in round trip")
	}
	u1, u2 := s.Model("User"), s2.Model("User")
	if len(u1.Fields) != len(u2.Fields) {
		t.Error("field count changed in round trip")
	}
	// Second round trip must be a fixpoint.
	text2 := specfmt.Format(s2)
	if text != text2 {
		t.Errorf("format not stable:\n%s\n---\n%s", text, text2)
	}
}

func TestPrincipalLifecycle(t *testing.T) {
	s := schema.New()
	plan, err := runScript(t, s, `
AddStaticPrincipal(Admin);
CreateModel(Doc {
  create: _ -> [Admin],
  delete: none,
});
`)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.After.HasStatic("Admin") || plan.After.Model("Doc") == nil {
		t.Fatal("schema wrong")
	}
	// Duplicate static rejected.
	if _, err := runScript(t, plan.After, `AddStaticPrincipal(Admin);`); err == nil {
		t.Error("duplicate static must fail")
	}
	// AddPrincipal twice rejected.
	p2, err := runScript(t, plan.After, `AddPrincipal(Doc);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScript(t, p2.After, `AddPrincipal(Doc);`); err == nil {
		t.Error("already a principal")
	}
}

// TestBlobEndToEnd covers the §6.1 Blob extension through the pipeline:
// blob fields migrate and copy, their policies are still leak-checked, and
// policies referencing blob values are rejected by the type checker.
func TestBlobEndToEnd(t *testing.T) {
	s := schema.New()
	plan, err := runScript(t, s, `
CreateModel(@principal User {
  create: public,
  delete: none,
  name: String { read: public, write: u -> [u] },
  avatar: Blob { read: u -> [u], write: u -> [u] },
});
`)
	if err != nil {
		t.Fatal(err)
	}
	// Copying the private avatar into a public blob field is a leak even
	// though the verifier never reasons about blob *values*: the dataflow
	// check compares the field policies.
	_, err = runScript(t, plan.After, `
User::AddField(publicAvatar: Blob {
  read: public,
  write: u -> [u]
}, u -> u.avatar);
`)
	if err == nil || !strings.Contains(err.Error(), "leak") {
		t.Fatalf("blob copy to a laxer field must be rejected, got %v", err)
	}
	// The same copy at equal strictness verifies and executes.
	db := store.Open()
	alice := db.Collection("User").Insert(store.Doc{"name": "alice", "avatar": "PNG..."})
	script, err := parseScript(`
User::AddField(backupAvatar: Blob {
  read: u -> [u],
  write: u -> [u]
}, u -> u.avatar);
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := verifyExec(plan.After, script, db)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := db.Collection("User").Get(alice)
	if doc["backupAvatar"] != "PNG..." {
		t.Errorf("backup = %v", doc["backupAvatar"])
	}
	// A policy referencing the blob is rejected with a §6.1 error.
	_, err = runScript(t, after, `
User::UpdateFieldPolicy(name, {
  write: u -> if u.avatar == "" then [u] else []
});
`)
	if err == nil || !strings.Contains(err.Error(), "Blob") {
		t.Fatalf("blob-referencing policy must be rejected, got %v", err)
	}
}

// TestVerdictDBIsTheOnlyStore pins the one-store rule: with both
// Options.Cache and Options.VerdictDB set, proofs look up and record
// verdicts in the VerdictDB alone, and the cache is never touched.
func TestVerdictDBIsTheOnlyStore(t *testing.T) {
	s := loadSchema(t, chitterBase)
	d, err := verify.OpenVerdictDB(filepath.Join(t.TempDir(), "verdicts.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cache := verify.NewCache(0)
	stats := &verify.Stats{}
	opts := DefaultOptions()
	opts.Cache = cache
	opts.VerdictDB = d
	opts.Stats = stats
	script, err := parser.ParseMigration(`User::UpdateFieldReadPolicy(email, u -> [u]);`)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := Verify(s, script, opts); err != nil {
			t.Fatal(err)
		}
	}
	snap := stats.Snapshot()
	if snap.CacheHits != 0 || snap.CacheMisses != 0 {
		t.Errorf("cache lookups = %d hit / %d miss, want none", snap.CacheHits, snap.CacheMisses)
	}
	if snap.PersistMisses == 0 || snap.PersistHits == 0 {
		t.Errorf("persist lookups = %d hit / %d miss, want both non-zero", snap.PersistHits, snap.PersistMisses)
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d verdicts, want 0", cache.Len())
	}
	if d.Len() == 0 {
		t.Error("verdict store recorded nothing")
	}
}
