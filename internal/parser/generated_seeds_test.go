package parser_test

import (
	"testing"

	"scooter/internal/parser"
	"scooter/internal/specfmt"
)

// TestGeneratedSeedsParse is the regression net for the machine-generated
// grammar surface: the struct2schema output must parse, type-check, and
// format to a fixpoint (scooter fmt is a no-op on tool output), and the
// synthesized migration must parse back to the same command count.
func TestGeneratedSeedsParse(t *testing.T) {
	s, err := specfmt.Parse(parser.GeneratedSpecSeed)
	if err != nil {
		t.Fatalf("generated spec seed does not parse and type-check: %v", err)
	}
	text := specfmt.Format(s)
	if text != parser.GeneratedSpecSeed {
		t.Fatalf("scooter fmt is not a no-op on struct2schema output")
	}

	m, err := parser.ParseMigration(parser.GeneratedMigrationSeed)
	if err != nil {
		t.Fatalf("generated migration seed does not parse: %v", err)
	}
	if len(m.Commands) == 0 {
		t.Fatal("generated migration seed parsed to zero commands")
	}
	for _, c := range m.Commands {
		reparsed, err := parser.ParseMigration(c.String() + "\n")
		if err != nil {
			t.Fatalf("command does not round-trip: %v\n%s", err, c)
		}
		if len(reparsed.Commands) != 1 || reparsed.Commands[0].String() != c.String() {
			t.Fatalf("command changed across round trip: %s", c)
		}
	}
}
