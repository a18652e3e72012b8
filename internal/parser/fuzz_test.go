package parser

import "testing"

// Fuzz targets: the parsers must never panic, whatever the input. Seeds
// cover both surface languages and the known tricky spots (datetime
// literals, annotations, nested braces, unary minus).

func FuzzParsePolicyFile(f *testing.F) {
	seeds := []string{
		figure4,
		"@static-principal\nX\n",
		"M { create: public, delete: none }",
		"M { create: _ -> [P], delete: none, f: Set(Id(M)) { read: public, write: none }}",
		"@principal\nM { create: public, delete: none, t: DateTime { read: public, write: m -> M::Find({t < d1-1-2020-00:00:00}) }}",
		"M { create: public, delete: none, v: I64 { read: public, write: m -> M::Find({v >= -3}) }}",
		"{{{{", "@", "M {", "M } {", "\"", "d9-9-", "M { create: public, delete: none,",
		GeneratedSpecSeed,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Must not panic; errors are fine.
		ParsePolicyFile(src)
	})
}

func FuzzParseMigration(f *testing.F) {
	seeds := []string{
		chitterMigration,
		peepMigration,
		"DeleteModel(X);",
		"X::AddField(y: Option(String) { read: public, write: none }, _ -> None);",
		"X::WeakenPolicy(create, public, \"why\");",
		"X::", ";;;", "CreateModel(", "X::AddField(",
		GeneratedMigrationSeed,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseMigration(src)
	})
}
