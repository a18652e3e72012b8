package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelsTree points at the seed corpus the struct2schema satellite tests
// import; the CLI tests reuse it so the whole pipeline is exercised from
// the same tree CI drives.
const modelsTree = "../../testdata/models"

// runCLI invokes the program in-process and returns its exit code and
// captured output, mirroring the sidecar exit-code tests.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins the scooter subcommand exit-code contract: 0 success,
// 1 violation/unprovable synthesis, 2 usage or parse errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("good.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: public, write: none }\n}\n")
	badSpec := write("bad.scp", "M {{{{")
	// Weakening f's read policy is synthesizable but unprovable.
	weaker := write("weaker.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: public, write: public }\n}\n")
	// Adding an Id-typed field has no synthesizable initialiser.
	needsInit := write("needsinit.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: public, write: none },\n  g: Id(M) { read: public, write: none }\n}\n")
	goodMig := write("good.scm", "M::UpdateFieldPolicy(f, {read: none});\n")
	badMig := write("bad.scm", "M::(")
	addA := write("add_a.scm", "M::AddField(n: I64 { read: public, write: none }, _ -> 1);\n")
	addEq := write("add_eq.scm", "M::AddField(n: I64 { read: public, write: none }, _ -> 0 + 1);\n")
	addNe := write("add_ne.scm", "M::AddField(n: I64 { read: public, write: none }, _ -> 2);\n")
	addZero := write("add_zero.scm", "M::AddField(n: I64 { read: public, write: none }, _ -> 0 + 0);\n")
	// addedSpec is spec plus an I64 field, so makemigration synthesizes
	// exactly `M::AddField(n: ..., _ -> 0)` — equivalent to addZero, not addA.
	addedSpec := write("added.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: public, write: none },\n  n: I64 { read: public, write: none }\n}\n")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown command", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},

		{"verify ok", []string{"verify", "-spec", spec, goodMig}, 0},
		{"verify bad flag", []string{"verify", "-nonsense"}, 2},
		{"verify no scripts", []string{"verify", "-spec", spec}, 1},
		{"verify parse error", []string{"verify", "-spec", spec, badMig}, 1},
		{"verify bad spec", []string{"verify", "-spec", badSpec, goodMig}, 1},

		{"gen bad flag", []string{"gen", "-nonsense"}, 2},
		{"fmt bad flag", []string{"fmt", "-nonsense"}, 2},
		{"report usage", []string{"report", "fig6"}, 2},

		{"struct2schema ok", []string{"struct2schema", "-input", modelsTree}, 0},
		{"struct2schema bad flag", []string{"struct2schema", "-nonsense"}, 2},
		{"struct2schema missing input", []string{"struct2schema"}, 2},
		{"struct2schema positional junk", []string{"struct2schema", "-input", modelsTree, "extra"}, 2},
		{"struct2schema empty tree", []string{"struct2schema", "-input", dir}, 1},

		{"makemigration bad flag", []string{"makemigration", "-nonsense"}, 2},
		{"makemigration missing from", []string{"makemigration", "-to", spec}, 2},
		{"makemigration both targets", []string{"makemigration", "-from", spec, "-to", spec, "-against-structs", modelsTree}, 2},
		{"makemigration neither target", []string{"makemigration", "-from", spec}, 2},
		{"makemigration no changes", []string{"makemigration", "-from", spec, "-to", spec}, 0},
		{"makemigration bootstrap", []string{"makemigration", "-from", filepath.Join(dir, "absent.scp"), "-to", spec}, 0},
		{"makemigration provable", []string{"makemigration", "-from", weaker, "-to", spec}, 0},
		{"makemigration unprovable synthesis", []string{"makemigration", "-from", spec, "-to", weaker}, 1},
		{"makemigration incomplete synthesis", []string{"makemigration", "-from", spec, "-to", needsInit}, 1},
		{"makemigration unprovable skipped with no-verify", []string{"makemigration", "-no-verify", "-from", spec, "-to", weaker}, 0},
		{"makemigration against structs", []string{"makemigration", "-from", filepath.Join(dir, "absent.scp"), "-against-structs", modelsTree}, 0},
		{"makemigration compare equivalent", []string{"makemigration", "-from", spec, "-to", addedSpec, "-compare", addZero}, 0},
		{"makemigration compare counterexample", []string{"makemigration", "-from", spec, "-to", addedSpec, "-compare", addA}, 1},
		{"makemigration compare inconclusive", []string{"makemigration", "-from", spec, "-to", addedSpec, "-compare", addZero, "-max-universes", "1"}, 3},
		{"makemigration compare missing ref", []string{"makemigration", "-from", spec, "-to", addedSpec, "-compare", filepath.Join(dir, "absent.scm")}, 1},

		{"equivcheck bad flag", []string{"equivcheck", "-nonsense"}, 2},
		{"equivcheck missing from", []string{"equivcheck", addA, addEq}, 2},
		{"equivcheck one script", []string{"equivcheck", "-from", spec, addA}, 2},
		{"equivcheck removed -online flag is a usage error", []string{"equivcheck", "-from", spec, "-online", addA}, 2},
		{"equivcheck proved", []string{"equivcheck", "-from", spec, addA, addEq}, 0},
		{"equivcheck counterexample", []string{"equivcheck", "-from", spec, addA, addNe}, 1},
		{"equivcheck inconclusive", []string{"equivcheck", "-from", spec, "-max-universes", "1", addA, addEq}, 3},
		{"equivcheck parse error", []string{"equivcheck", "-from", spec, addA, badMig}, 1},
		{"equivcheck bad spec", []string{"equivcheck", "-from", badSpec, addA, addEq}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.want {
				t.Fatalf("args %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
			}
		})
	}
}

// TestMakeMigrationOutputs checks the user-visible contract beyond exit
// codes: the no-changes fast path, the UNSAFE verdict on a weakening, and
// the ambiguity report on an incomplete synthesis.
func TestMakeMigrationOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("a.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: none, write: none }\n}\n")
	weaker := write("b.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: public, write: none }\n}\n")

	code, stdout, _ := runCLI("makemigration", "-from", spec, "-to", spec)
	if code != 0 || !strings.Contains(stdout, "no changes") {
		t.Fatalf("identical specs: exit %d, stdout %q", code, stdout)
	}

	out := filepath.Join(dir, "out.scm")
	code, stdout, stderr := runCLI("makemigration", "-from", spec, "-to", weaker, "-o", out)
	if code != 1 || !strings.Contains(stdout, "UNSAFE") {
		t.Fatalf("weakening: exit %d, stdout %q", code, stdout)
	}
	// The candidate is still written — it never applies unproven, and is
	// the starting point for an intentional WeakenFieldPolicy.
	data, err := os.ReadFile(out)
	if err != nil || !strings.Contains(string(data), "UpdateFieldPolicy") {
		t.Fatalf("candidate not written: %v\n%s", err, data)
	}
	_ = stderr

	needsInit := write("c.scp", "@static-principal P\n\nM {\n  create: public,\n  delete: none,\n  f: String { read: none, write: none },\n  g: Id(M) { read: public, write: none }\n}\n")
	code, _, stderr = runCLI("makemigration", "-from", spec, "-to", needsInit)
	if code != 1 || !strings.Contains(stderr, "no-initialiser") || !strings.Contains(stderr, "incomplete") {
		t.Fatalf("incomplete synthesis: exit %d, stderr %q", code, stderr)
	}
}

// TestStruct2SchemaStdout: the emitted spec is canonical (fmt fixpoint)
// and deterministic across runs.
func TestStruct2SchemaStdout(t *testing.T) {
	code, first, stderr := runCLI("struct2schema", "-input", modelsTree)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.Contains(first, "@principal") || !strings.Contains(first, "password_hash") {
		t.Fatalf("unexpected spec:\n%s", first)
	}
	if !strings.Contains(stderr, "warning") {
		t.Fatalf("unmappable field warning missing:\n%s", stderr)
	}
	code, second, _ := runCLI("struct2schema", "-input", modelsTree)
	if code != 0 || first != second {
		t.Fatal("struct2schema output is not deterministic")
	}
}
