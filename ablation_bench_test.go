// Ablation benchmarks for prior-definition tracking (paper §6.4), the
// design choice DESIGN.md calls out.
package scooter_test

import (
	"testing"

	"scooter/internal/migrate"
	"scooter/internal/parser"
)

// moderatorScript is the §2.2 migration whose email update only verifies
// via prior definitions.
const moderatorScript = `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);
User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2})
});
`

// BenchmarkAblation_EquivalenceTracking measures the cost of verifying the
// moderator migration with definitional expansion (the configuration in
// which it verifies).
func BenchmarkAblation_EquivalenceTracking_On(b *testing.B) {
	s := mustSchema(b, chitterBenchSpec)
	script, err := parser.ParseMigration(moderatorScript)
	if err != nil {
		b.Fatal(err)
	}
	opts := migrate.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Verify(s, script, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_EquivalenceTracking_Off measures the same migration
// with tracking disabled; it is (correctly, for that configuration)
// rejected, exercising counterexample construction.
func BenchmarkAblation_EquivalenceTracking_Off(b *testing.B) {
	s := mustSchema(b, chitterBenchSpec)
	script, err := parser.ParseMigration(moderatorScript)
	if err != nil {
		b.Fatal(err)
	}
	opts := migrate.DefaultOptions()
	opts.TrackEquivalences = false
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Verify(s, script, opts); err == nil {
			b.Fatal("without equivalences the email update must be rejected (§6.4)")
		}
	}
}
