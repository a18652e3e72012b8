package scooter_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scooter"
	"scooter/internal/verify"
)

// chitterScript bootstraps the Chitter spec used across facade tests.
const chitterScript = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
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
    write: u -> [u] },
});
CreateModel(Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] },
});
`

// bootstrapChitter builds the Chitter workspace used across facade tests.
func bootstrapChitter(t testing.TB) *scooter.Workspace {
	t.Helper()
	w := scooter.NewWorkspace()
	if _, err := w.MigrateNamed("001_chitter", chitterScript); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkspaceLifecycle(t *testing.T) {
	w := bootstrapChitter(t)
	if got := len(w.Models()); got != 2 {
		t.Fatalf("models: %d", got)
	}
	if got := w.StaticPrincipals(); len(got) != 1 || got[0] != "Unauthenticated" {
		t.Fatalf("statics: %v", got)
	}
	// The spec text reloads into an equivalent workspace.
	w2, err := scooter.LoadSpec(w.SpecText())
	if err != nil {
		t.Fatalf("LoadSpec: %v\n%s", err, w.SpecText())
	}
	if len(w2.Models()) != 2 {
		t.Fatal("reloaded workspace differs")
	}
}

func TestEndToEndEnforcement(t *testing.T) {
	w := bootstrapChitter(t)
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	aliceID, err := anon.Insert("User", scooter.Doc{
		"name": "alice", "email": "a@x", "pronouns": "she/her",
		"isAdmin": false, "followers": []scooter.Value{},
	})
	if err != nil {
		t.Fatal(err)
	}
	bobID, err := anon.Insert("User", scooter.Doc{
		"name": "bob", "email": "b@x", "pronouns": "he/him",
		"isAdmin": false, "followers": []scooter.Value{},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := w.AsPrinc(scooter.Instance("User", aliceID))
	bob := w.AsPrinc(scooter.Instance("User", bobID))

	// Bob cannot see alice's email.
	obj, err := bob.FindByID("User", aliceID)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get("email"); ok {
		t.Error("email must be stripped")
	}
	// Alice posts a peep; bob cannot edit it.
	peep, err := alice.Insert("Peep", scooter.Doc{"author": aliceID, "body": "hi"})
	if err != nil {
		t.Fatal(err)
	}
	err = bob.Update("Peep", peep, scooter.Doc{"body": "hacked"})
	var perr *scooter.PolicyError
	if !errors.As(err, &perr) {
		t.Fatalf("expected PolicyError, got %v", err)
	}
}

// TestMigrateRejectsLeak runs the §2.1 leaky bio migration through every
// public way to submit a script. Each rejects it with a counterexample
// before anything runs: the spec is unchanged and nothing is journaled.
func TestMigrateRejectsLeak(t *testing.T) {
	const leak = `
User::AddField(bio : String {
  read: public,
  write: u -> [u]
}, u -> u.pronouns);
`
	online := scooter.DefaultOptions()
	online.Online = true
	for _, c := range []struct {
		name string
		run  func(*scooter.Workspace) error
	}{
		{"MigrateNamed", func(w *scooter.Workspace) error {
			_, err := w.MigrateNamed("002_bio", leak)
			return err
		}},
		{"MigrateNamedOpts/online", func(w *scooter.Workspace) error {
			_, err := w.MigrateNamedOpts("002_bio", leak, online)
			return err
		}},
		{"Verify", func(w *scooter.Workspace) error {
			_, err := w.Verify(leak)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A workspace loaded from the spec starts with an empty journal.
			w, err := scooter.LoadSpec(bootstrapChitter(t).SpecText())
			if err != nil {
				t.Fatal(err)
			}
			spec := w.SpecText()
			err = c.run(w)
			var uerr *scooter.UnsafeError
			if !errors.As(err, &uerr) {
				t.Fatalf("leaky migration: err = %v (%T), want *UnsafeError", err, err)
			}
			if uerr.Result == nil || uerr.Result.Counterexample == nil {
				t.Fatal("missing counterexample")
			}
			if got := w.SpecText(); got != spec {
				t.Errorf("failed migration changed the spec:\n%s", got)
			}
			if got := w.AppliedMigrations(); len(got) != 0 {
				t.Errorf("failed migration was journaled: %+v", got)
			}
		})
	}
}

func TestCheckPolicyStrictnessAPI(t *testing.T) {
	w := bootstrapChitter(t)
	ce, err := w.CheckPolicyStrictness("User",
		`u -> [u]`,
		`public`)
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Fatal("public is weaker than [u]; expected counterexample")
	}
	if !strings.Contains(ce.String(), "Principal:") {
		t.Errorf("counterexample: %s", ce)
	}
	ce, err = w.CheckPolicyStrictness("User", `public`, `u -> [u]`)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("strengthening is safe, got:\n%s", ce)
	}
}

func TestGenerateORMFromWorkspace(t *testing.T) {
	w := bootstrapChitter(t)
	src, err := w.GenerateORM("chitterorm")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package chitterorm", "type User struct", "type PeepHandle"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated ORM missing %q", want)
		}
	}
}

func TestFilterHelpers(t *testing.T) {
	w := bootstrapChitter(t)
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	for i, name := range []string{"a", "b", "c"} {
		if _, err := anon.Insert("User", scooter.Doc{
			"name": name, "email": name, "pronouns": "", "isAdmin": i == 0,
			"followers": []scooter.Value{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := anon.Find("User", scooter.Eq("name", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("find by name: %d", len(objs))
	}
}

func TestMigrateNamedJournal(t *testing.T) {
	w := scooter.NewWorkspace()
	boot := `
CreateModel(@principal User {
  create: public,
  delete: none,
  name: String { read: public, write: u -> [u] },
});
`
	applied, err := w.MigrateNamed("001_bootstrap", boot)
	if err != nil || !applied {
		t.Fatalf("first application: applied=%v err=%v", applied, err)
	}
	// Re-running the exact script is a no-op.
	applied, err = w.MigrateNamed("001_bootstrap", boot)
	if err != nil || applied {
		t.Fatalf("re-application: applied=%v err=%v", applied, err)
	}
	// A different script under the same name is rejected.
	_, err = w.MigrateNamed("001_bootstrap", boot+"\n# edited")
	if err == nil || !strings.Contains(err.Error(), "different content") {
		t.Fatalf("edited applied script: %v", err)
	}
	// A fresh name proceeds.
	applied, err = w.MigrateNamed("002_bio", `
User::AddField(bio: String { read: public, write: u -> [u] }, _ -> "");
`)
	if err != nil || !applied {
		t.Fatalf("second migration: applied=%v err=%v", applied, err)
	}
	entries := w.AppliedMigrations()
	if len(entries) != 2 || entries[0].Name != "001_bootstrap" || entries[1].Name != "002_bio" {
		t.Fatalf("journal: %+v", entries)
	}
	if entries[1].Commands != 1 || entries[1].AppliedAt == 0 || entries[1].Hash == "" {
		t.Fatalf("journal entry fields: %+v", entries[1])
	}
	// A failed migration is not journaled.
	_, err = w.MigrateNamed("003_broken", `
User::AddField(copy: String { read: public, write: u -> [u] }, u -> u.ghost);
`)
	if err == nil {
		t.Fatal("migration referencing a missing field must fail")
	}
	if got := len(w.AppliedMigrations()); got != 2 {
		t.Fatalf("failed migration must not be journaled: %d entries", got)
	}
	// The failed name remains available for the corrected script.
	applied, err = w.MigrateNamed("003_broken", `
User::AddField(copy: String { read: public, write: u -> [u] }, u -> u.bio);
`)
	if err != nil || !applied {
		t.Fatalf("corrected script under the failed name: applied=%v err=%v", applied, err)
	}
}

// TestDurableCloseReopen checks that a durable workspace resumes where it
// left off: after a close and a reopen of the same directory, replaying the
// migration history restores the spec text, and documents, the journal and
// policy enforcement all survive.
func TestDurableCloseReopen(t *testing.T) {
	const bio = `
User::AddField(bio: String { read: public, write: u -> [u] }, u -> "I'm " + u.name);
`
	dir := t.TempDir()
	w, err := scooter.OpenDurable(dir, scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.MigrateNamed("001_chitter", chitterScript); err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	aliceID, err := anon.Insert("User", scooter.Doc{
		"name": "alice", "email": "a@x", "pronouns": "she/her",
		"isAdmin": false, "followers": []scooter.Value{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.MigrateNamed("002_bio", bio); err != nil {
		t.Fatal(err)
	}
	spec := w.SpecText()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := scooter.OpenDurable(dir, scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Replaying the applied history is a no-op that restores the spec.
	for _, m := range []struct{ name, src string }{{"001_chitter", chitterScript}, {"002_bio", bio}} {
		applied, err := w2.MigrateNamed(m.name, m.src)
		if err != nil || applied {
			t.Fatalf("replaying %s after reopen: applied=%v err=%v", m.name, applied, err)
		}
	}
	if got := w2.SpecText(); got != spec {
		t.Fatalf("spec after reopen:\n%s\nwant:\n%s", got, spec)
	}
	if got := w2.AppliedMigrations(); len(got) != 2 || got[0].Name != "001_chitter" || got[1].Name != "002_bio" {
		t.Fatalf("journal after reopen: %+v", got)
	}
	obj, err := w2.AsPrinc(scooter.Instance("User", aliceID)).FindByID("User", aliceID)
	if err != nil || obj == nil {
		t.Fatalf("lookup after reopen: %v %v", obj, err)
	}
	if got, ok := obj.Get("bio"); !ok || got != "I'm alice" {
		t.Fatalf("bio after reopen: %v (%v)", got, ok)
	}
	other, err := w2.AsPrinc(scooter.Static("Unauthenticated")).FindByID("User", aliceID)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.Get("email"); ok {
		t.Fatal("email must stay hidden after reopen")
	}
}

// metricValue scrapes w's registry for the unlabelled sample name.
func metricValue(t *testing.T, w *scooter.Workspace, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing", name)
	return 0
}

// TestWorkspaceMetricsReadStats checks that the registry's verifier and
// solver counters come from the workspace's one verify.Stats: a migration
// verified against a file-backed verdict store shows up as persist misses
// and solves, and as no in-memory cache traffic.
func TestWorkspaceMetricsReadStats(t *testing.T) {
	w := bootstrapChitter(t)
	vdb, err := verify.OpenVerdictDB(filepath.Join(t.TempDir(), "verdicts.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer vdb.Close()
	names := []string{
		"scooter_verify_cache_hits_total",
		"scooter_verify_cache_misses_total",
		"scooter_verify_persist_misses_total",
		"scooter_solver_solves_total",
	}
	before := map[string]float64{}
	for _, n := range names {
		before[n] = metricValue(t, w, n)
	}
	opts := scooter.Options{TrackEquivalences: true, Cache: vdb}
	if _, err := w.MigrateNamedOpts("tighten", `User::UpdateFieldReadPolicy(email, u -> [u]);`, opts); err != nil {
		t.Fatal(err)
	}
	delta := map[string]float64{}
	for _, n := range names {
		delta[n] = metricValue(t, w, n) - before[n]
	}
	if delta["scooter_verify_cache_hits_total"] != 0 || delta["scooter_verify_cache_misses_total"] != 0 {
		t.Errorf("cache traffic with a verdict store attached: %v", delta)
	}
	if delta["scooter_verify_persist_misses_total"] == 0 || delta["scooter_solver_solves_total"] == 0 {
		t.Errorf("want store misses and solves: %v", delta)
	}
}
