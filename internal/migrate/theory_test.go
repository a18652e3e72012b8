package migrate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/verify"
)

// loadTheoryCase reads one testdata/<name> pair: the spec and the
// migration script as the solver-hard benchmark's generator emits them.
func loadTheoryCase(t *testing.T, name string) (spec, migration string) {
	t.Helper()
	read := func(file string) string {
		b, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return read("policy.scp"), read("migration.scm")
}

// TestTheoryHeavyScripts feeds scripts whose strictness queries need the
// arithmetic theory and set-builder instantiation, not unit propagation
// alone, through Verify. hard-23-3264 is unsafe and drives the SAT core
// through conflict analysis (it once crashed the solver); it must yield a
// counterexample that the runtime evaluator reproduces. hard-23-0614 is
// safe by construction and must be accepted.
func TestTheoryHeavyScripts(t *testing.T) {
	t.Run("hard-23-3264", func(t *testing.T) {
		spec, src := loadTheoryCase(t, "hard-23-3264")
		s := loadSchema(t, spec)
		_, err := runScript(t, s, src)
		var uerr *UnsafeError
		if !errors.As(err, &uerr) {
			t.Fatalf("want *UnsafeError, got %T: %v", err, err)
		}
		const want = "command 5 (AddField): data leak: User.f1 flows to User.g but has a stricter read policy"
		if got, _, _ := strings.Cut(err.Error(), "\n"); got != want {
			t.Fatalf("error:\n got %q\nwant %q", got, want)
		}
		if uerr.Result == nil || uerr.Result.Counterexample == nil {
			t.Fatal("no counterexample")
		}

		// The leak compares f1's read policy as the first four commands
		// left it with g's read policy, both on the same User instance.
		lines := strings.SplitAfter(strings.TrimSpace(src), "\n")
		prefix, err := runScript(t, s, strings.Join(lines[:4], ""))
		if err != nil {
			t.Fatalf("commands 1-4: %v", err)
		}
		add, ok := uerr.Command.(*ast.AddField)
		if !ok {
			t.Fatalf("failing command is %T, want *ast.AddField", uerr.Command)
		}
		pOld := prefix.After.Model("User").Field("f1").Read
		if err := verify.Replay(prefix.After, uerr.Result.Counterexample, "User", pOld, add.Field.Read); err != nil {
			t.Errorf("counterexample does not replay: %v\n%v", err, uerr.Result.Counterexample)
		}
	})

	t.Run("hard-23-0614", func(t *testing.T) {
		spec, src := loadTheoryCase(t, "hard-23-0614")
		if _, err := runScript(t, loadSchema(t, spec), src); err != nil {
			t.Fatalf("safe-by-construction script rejected: %v", err)
		}
	})
}
