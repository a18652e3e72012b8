package migrate

import (
	"path/filepath"
	"strings"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/equivcheck"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

func equivSchema(t *testing.T) *schema.Schema {
	t.Helper()
	f, err := parser.ParsePolicyFile(`
@principal
User {
  create: public,
  delete: none,
  isAdmin: Bool { read: public, write: none },
  karma: I64 { read: public, write: none }}
Team {
  create: public,
  delete: none,
  title: String { read: public, write: public }}
`)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		t.Fatal(err)
	}
	return s
}

func mig(t *testing.T, src string) *ast.MigrationScript {
	t.Helper()
	script, err := parser.ParseMigration(src)
	if err != nil {
		t.Fatal(err)
	}
	return script
}

func TestVerifyEquivalentReordered(t *testing.T) {
	s := equivSchema(t)
	a := mig(t, `
User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);
Team::AddField(slug: String { read: public, write: none }, _ -> "t");
`)
	b := mig(t, `
Team::AddField(slug: String { read: public, write: none }, _ -> "t");
User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);
`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Equivalent {
		t.Fatalf("commuting reorder must be equivalent, got %s\n%s", rep.Verdict, rep.Format())
	}
	if rep.Universes == 0 {
		t.Fatal("data phase must have replayed universes")
	}
}

func TestVerifyEquivalentDistinctInitsSameFunction(t *testing.T) {
	// Textually different initialisers computing the same function are
	// proved equal by replay, not by syntax.
	s := equivSchema(t)
	a := mig(t, `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 1 else 1);`)
	b := mig(t, `User::AddField(level: I64 { read: public, write: none }, _ -> 1);`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Equivalent {
		t.Fatalf("same-function inits must be equivalent, got %s\n%s", rep.Verdict, rep.Format())
	}
}

func TestVerifyEquivalentCounterexample(t *testing.T) {
	s := equivSchema(t)
	a := mig(t, `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);`)
	b := mig(t, `User::AddField(level: I64 { read: public, write: none }, _ -> 0);`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.NotEquivalent {
		t.Fatalf("mutated init must yield a counterexample, got %s", rep.Verdict)
	}
	if rep.Counterexample == nil {
		t.Fatal("missing counterexample")
	}
	out := rep.Format()
	if !strings.Contains(out, "User") || !strings.Contains(out, "level") {
		t.Fatalf("counterexample must name the diverging collection and field:\n%s", out)
	}
	// The divergence needs an admin user, so the witness universe must
	// seed one: isAdmin is a relevant field and both values are tried.
	if !strings.Contains(out, "isAdmin: true") {
		t.Fatalf("witness universe must seed the distinguishing document:\n%s", out)
	}
}

func TestVerifyEquivalentDeleteRecreate(t *testing.T) {
	// Delete-then-recreate produces the same schema as leaving the model
	// alone, but empties the collection: the sides must not be judged
	// equivalent on schema equality alone.
	s := equivSchema(t)
	a := mig(t, `
DeleteModel(Team);
CreateModel(Team {
  create: public,
  delete: none,
  title: String { read: public, write: public },
});
`)
	b := mig(t, `User::AddField(scratch: I64 { read: public, write: none }, _ -> 0);
User::RemoveField(scratch);`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.NotEquivalent {
		t.Fatalf("delete-recreate must differ from no-op on seeded stores, got %s\n%s", rep.Verdict, rep.Format())
	}
}

func TestVerifyEquivalentPolicyProof(t *testing.T) {
	// Textually different, extensionally equal policies are discharged by
	// the SMT strictness checker, not by string comparison.
	s := equivSchema(t)
	a := mig(t, `Team::UpdateFieldPolicy(title, {write: none});`)
	b := mig(t, `Team::UpdateFieldPolicy(title, {write: _ -> []});`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Equivalent {
		t.Fatalf("none and (_ -> []) must be proved equal, got %s\n%s", rep.Verdict, rep.Format())
	}
	if rep.PolicyProofs == 0 {
		t.Fatal("expected SMT policy proofs to run")
	}
}

func TestVerifyEquivalentPolicyDivergence(t *testing.T) {
	s := equivSchema(t)
	a := mig(t, `Team::UpdateFieldPolicy(title, {write: none});`)
	b := mig(t, `Team::UpdateFieldPolicy(title, {read: public});`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.NotEquivalent {
		t.Fatalf("diverging policies must be inequivalent, got %s", rep.Verdict)
	}
	if ce := rep.Counterexample; ce == nil || !strings.Contains(ce.Principal, "Team.title (write)") {
		t.Fatalf("counterexample must locate the diverging policy: %+v", rep.Counterexample)
	}
}

func TestVerifyEquivalentInconclusive(t *testing.T) {
	s := equivSchema(t)
	a := mig(t, `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);`)
	b := mig(t, `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);`)
	rep, err := VerifyEquivalent(s, "a.scm", a, "b.scm", b, equivcheck.Options{MaxUniverses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Inconclusive {
		t.Fatalf("universe cap must yield inconclusive, got %s\n%s", rep.Verdict, rep.Format())
	}
	if !strings.Contains(rep.Why, "max-universes") {
		t.Fatalf("why must explain the cap: %q", rep.Why)
	}
}

func TestVerifyEquivalentCaching(t *testing.T) {
	s := equivSchema(t)
	aSrc := `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);`
	bSrc := `User::AddField(level: I64 { read: public, write: none }, _ -> 0);`
	vdbPath := filepath.Join(t.TempDir(), "verdicts.db")
	vdb, err := verify.OpenVerdictDB(vdbPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := equivcheck.Options{Cache: vdb}

	cold, err := VerifyEquivalent(s, "a.scm", mig(t, aSrc), "b.scm", mig(t, bSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := VerifyEquivalent(s, "a.scm", mig(t, aSrc), "b.scm", mig(t, bSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Format() != warm.Format() {
		t.Fatalf("warm replay must be byte-identical:\ncold:\n%s\nwarm:\n%s", cold.Format(), warm.Format())
	}
	if err := vdb.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (reopened store) reproduces the same report.
	vdb2, err := verify.OpenVerdictDB(vdbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer vdb2.Close()
	opts2 := equivcheck.Options{Cache: vdb2}
	persisted, err := VerifyEquivalent(s, "a.scm", mig(t, aSrc), "b.scm", mig(t, bSrc), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.Format() != cold.Format() {
		t.Fatalf("persisted replay must be byte-identical:\ncold:\n%s\npersisted:\n%s", cold.Format(), persisted.Format())
	}
}

func TestVerifyOnlineEquivalent(t *testing.T) {
	s := equivSchema(t)
	script := mig(t, `User::AddField(level: I64 { read: public, write: none }, u -> if u.isAdmin then 2 else 0);`)
	rep, err := VerifyOnlineEquivalent(s, "add_level.scm", script, 1, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Equivalent {
		t.Fatalf("online plan must be equivalent to stop-the-world, got %s\n%s", rep.Verdict, rep.Format())
	}
	if rep.Universes == 0 {
		t.Fatal("plan-level check must replay universes")
	}
}
