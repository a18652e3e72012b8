package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// structdemoBootstrap is the corpus bootstrap synthesized from modelsTree.
var structdemoBootstrap = filepath.Join("..", "..", "internal", "casestudies", "corpus", "structdemo", "00_bootstrap.scm")

// copyModels copies the flat modelsTree into a fresh directory and returns
// it, so a test can evolve the structs without touching the seed tree.
func copyModels(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(modelsTree)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(modelsTree, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sameFile fails unless the files at got and want hold the same bytes.
func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s differs from %s:\n%s\n---\n%s", got, want, g, w)
	}
}

// TestStructsToMigrations drives the onboarding pipeline: import the seed
// struct tree, synthesize the verified bootstrap, synthesize a safe
// additive change (a new model), then a weakened policy tag, whose
// candidate is written but refused (exit 1). Each synthesized script must
// match the bytes cmd/sidecar's TestSynthesizedHistoryApplies applies and
// refuses; after a deliberate synthesizer change, regenerate
// testdata/synth from this test's outputs.
func TestStructsToMigrations(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.scp")
	if code, _, stderr := runCLI("struct2schema", "-input", modelsTree, "-o", spec); code != 0 {
		t.Fatalf("struct2schema: exit %d\n%s", code, stderr)
	}

	boot := filepath.Join(dir, "00_bootstrap.scm")
	if code, _, stderr := runCLI("makemigration", "-from", filepath.Join(dir, "absent.scp"), "-against-structs", modelsTree, "-o", boot); code != 0 {
		t.Fatalf("bootstrap: exit %d\n%s", code, stderr)
	}
	data, _ := os.ReadFile(boot)
	for _, want := range []string{"CreateModel(@principal", "password_hash: String { read: none"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("bootstrap missing %q:\n%s", want, data)
		}
	}
	sameFile(t, boot, structdemoBootstrap)

	grown := copyModels(t)
	if err := os.WriteFile(filepath.Join(grown, "coupons.go"), []byte(`package models

// Coupon is a safe additive change: synthesis must verify it.
type Coupon struct {
	ID      int64 `+"`db:\"id\"`"+`
	Code    string
	Percent int64
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	coupon := filepath.Join(dir, "01_coupon.scm")
	if code, _, stderr := runCLI("makemigration", "-from", spec, "-against-structs", grown, "-o", coupon); code != 0 {
		t.Fatalf("coupon: exit %d\n%s", code, stderr)
	}
	if data, _ := os.ReadFile(coupon); !strings.Contains(string(data), "CreateModel(Coupon") {
		t.Fatalf("coupon script:\n%s", data)
	}
	sameFile(t, coupon, filepath.Join("..", "..", "testdata", "synth", "01_coupon.scm"))

	weakened := copyModels(t)
	users := filepath.Join(weakened, "users.go")
	src, err := os.ReadFile(users)
	if err != nil {
		t.Fatal(err)
	}
	const strict, weak = "read: none; write: u -> [u]", "read: public; write: u -> [u]"
	if !strings.Contains(string(src), strict) {
		t.Fatalf("users.go has no %q tag to weaken", strict)
	}
	if err := os.WriteFile(users, []byte(strings.Replace(string(src), strict, weak, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	weaken := filepath.Join(dir, "02_weaken.scm")
	if code, stdout, stderr := runCLI("makemigration", "-from", spec, "-against-structs", weakened, "-o", weaken); code != 1 {
		t.Fatalf("weakening: exit %d, want 1 (unprovable synthesis)\n%s%s", code, stdout, stderr)
	}
	if data, _ := os.ReadFile(weaken); !strings.Contains(string(data), "UpdateFieldPolicy(password_hash") {
		t.Fatalf("weakening candidate:\n%s", data)
	}
	sameFile(t, weaken, filepath.Join("..", "..", "testdata", "synth", "02_weaken.scm"))
}

// TestEquivCheckPipeline: a synthesized bootstrap proves equivalent to the
// handwritten corpus one; an online backfill plan proves equivalent to its
// stop-the-world script; a weakened initialiser yields a concrete
// counterexample (exit 1); and a warm rerun answers from the verdict store
// with a byte-identical report.
func TestEquivCheckPipeline(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	code, stdout, stderr := runCLI("makemigration", "-from", filepath.Join(dir, "absent.scp"), "-against-structs", modelsTree,
		"-compare", structdemoBootstrap, "-o", filepath.Join(dir, "synth.scm"))
	if code != 0 || !strings.Contains(stdout, "EQUIVALENT up to bound") {
		t.Fatalf("synthesized vs corpus bootstrap: exit %d\n%s%s", code, stdout, stderr)
	}

	spec := filepath.Join(dir, "spec.scp")
	if code, _, stderr := runCLI("struct2schema", "-input", modelsTree, "-o", spec); code != 0 {
		t.Fatalf("struct2schema: exit %d\n%s", code, stderr)
	}
	nick := write("add_nick.scm", "User::AddField(nickname: String { read: public, write: none }, u -> u.name);\n")
	code, stdout, stderr = runCLI("equivcheck", "-from", spec, "-online", nick)
	if code != 0 || !strings.Contains(stdout, "EQUIVALENT up to bound") {
		t.Fatalf("online plan not proved: exit %d\n%s%s", code, stdout, stderr)
	}

	bad := write("add_nick_bad.scm", "User::AddField(nickname: String { read: public, write: none }, _ -> \"\");\n")
	vdb := filepath.Join(dir, "verdicts.db")
	code, cold, stderr := runCLI("equivcheck", "-from", spec, "-verdict-db", vdb, nick, bad)
	if code != 1 {
		t.Fatalf("weakened variant: exit %d, want 1 (counterexample)\n%s%s", code, cold, stderr)
	}
	for _, want := range []string{"NOT EQUIVALENT", "diverges at User"} {
		if !strings.Contains(cold, want) {
			t.Fatalf("report missing %q:\n%s", want, cold)
		}
	}
	code, warm, stderr := runCLI("equivcheck", "-from", spec, "-verdict-db", vdb, nick, bad)
	if code != 1 {
		t.Fatalf("warm rerun: exit %d, want 1\n%s%s", code, warm, stderr)
	}
	if warm != cold {
		t.Fatalf("warm replay changed the report:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}
