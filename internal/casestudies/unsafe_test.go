package casestudies

import (
	"errors"
	"strings"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/migrate"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// TestUnsafeCasesDetected reproduces §5.2: every modelled unsafe migration
// (Chitter ×2, HotCRP, Hails Task) is rejected with a counterexample, and
// each corrected script verifies.
func TestUnsafeCasesDetected(t *testing.T) {
	for _, c := range UnsafeCases() {
		t.Run(c.Key, func(t *testing.T) {
			f, err := parser.ParsePolicyFile(c.Spec)
			if err != nil {
				t.Fatal(err)
			}
			s := schema.FromPolicyFile(f)
			if err := typer.New(s).CheckSchema(); err != nil {
				t.Fatal(err)
			}

			script, err := parser.ParseMigration(c.Migration)
			if err != nil {
				t.Fatal(err)
			}
			_, err = migrate.Verify(s, script, migrate.DefaultOptions())
			if err == nil {
				t.Fatalf("%s: unsafe migration accepted", c.Name)
			}
			var uerr *migrate.UnsafeError
			if !errors.As(err, &uerr) {
				t.Fatalf("%s: error type %T: %v", c.Name, err, err)
			}
			if uerr.Result == nil || uerr.Result.Counterexample == nil {
				t.Fatalf("%s: no counterexample", c.Name)
			}
			ce := uerr.Result.Counterexample.String()
			if !strings.Contains(ce, c.WantPrincipal) {
				t.Errorf("%s: counterexample principal should mention %q:\n%s", c.Name, c.WantPrincipal, ce)
			}
			// The structural path proves nothing, so it plans the unsafe
			// script Sidecar just rejected.
			if _, err := migrate.Structural(s, script); err != nil {
				t.Errorf("%s: Structural rejected the unsafe script: %v", c.Name, err)
			}

			// Policy-update violations must replay against the runtime
			// evaluator on the witness database (AddField leaks compare
			// policies of two different fields, which Replay does not
			// model).
			if upd, ok := uerr.Command.(*ast.UpdateFieldPolicy); ok {
				m := s.Model(upd.ModelName)
				var oldPol ast.Policy
				var newPol ast.Policy
				if upd.Read != nil {
					oldPol, newPol = m.Field(upd.FieldName).Read, *upd.Read
				} else {
					oldPol, newPol = m.Field(upd.FieldName).Write, *upd.Write
				}
				// Replay is only exact when the violating command depends
				// on nothing earlier in the script (prior definitions
				// change evaluation semantics mid-script); skip otherwise.
				if err := typer.New(s).CheckPolicy(upd.ModelName, newPol); err == nil {
					if err := verify.Replay(s, uerr.Result.Counterexample, upd.ModelName, oldPol, newPol); err != nil {
						t.Errorf("%s: counterexample does not replay: %v", c.Name, err)
					}
				}
			}

			fix, err := parser.ParseMigration(c.Fix)
			if err != nil {
				t.Fatal(err)
			}
			verified, err := migrate.Verify(s, fix, migrate.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: corrected migration rejected: %v", c.Name, err)
			}
			// Structural plans the same schema Verify does.
			planned, err := migrate.Structural(s, fix)
			if err != nil {
				t.Fatalf("%s: Structural rejected the corrected script: %v", c.Name, err)
			}
			if got, want := specfmt.Format(planned.After), specfmt.Format(verified.After); got != want {
				t.Errorf("%s: Structural planned\n%s\nVerify planned\n%s", c.Name, got, want)
			}
		})
	}
}
