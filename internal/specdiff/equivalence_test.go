package specdiff

import (
	"testing"

	"scooter/internal/equivcheck"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
)

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

// TestSynthesizedScriptEquivalence closes the synthesis loop with a proof:
// the candidate script the differ renders is observationally equivalent to
// a handwritten script reaching the same target spec — even when the
// handwritten one orders commands differently and spells initialisers
// differently — and a handwritten script with a diverging initialiser is
// refuted with a counterexample. This is the library-level contract behind
// `scooter makemigration -compare`.
func TestSynthesizedScriptEquivalence(t *testing.T) {
	from := parseSpec(t, `
User {
  create: public,
  delete: none,
  name: String { read: public, write: none }
}
`)
	to := parseSpec(t, `
User {
  create: public,
  delete: none,
  name: String { read: public, write: none },
  karma: I64 { read: public, write: none }
}
Badge {
  create: public,
  delete: none,
  label: String { read: public, write: none }
}
`)
	res, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("diff must be complete: %v", res.Ambiguities)
	}
	candidate, err := parser.ParseMigration(res.Script())
	if err != nil {
		t.Fatalf("synthesized script does not re-parse: %v", err)
	}

	// Different command order, different-but-equal initialiser spelling.
	handwritten, err := parser.ParseMigration(`
CreateModel(Badge {
  create: public,
  delete: none,
  label: String { read: public, write: none },
});
User::AddField(karma: I64 { read: public, write: none }, _ -> 1 - 1);
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := equivcheck.Check(from, "synthesized", candidate, "handwritten", handwritten, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.Equivalent {
		t.Fatalf("synthesized candidate must match the handwritten script, got %s\n%s",
			rep.Verdict, rep.Format())
	}

	diverging, err := parser.ParseMigration(`
CreateModel(Badge {
  create: public,
  delete: none,
  label: String { read: public, write: none },
});
User::AddField(karma: I64 { read: public, write: none }, _ -> 7);
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = equivcheck.Check(from, "synthesized", candidate, "diverging", diverging, equivcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != equivcheck.NotEquivalent || rep.Counterexample == nil {
		t.Fatalf("diverging initialiser must be refuted with a counterexample, got %s\n%s",
			rep.Verdict, rep.Format())
	}
}
