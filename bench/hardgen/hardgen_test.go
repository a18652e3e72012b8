package hardgen_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"scooter/bench/hardgen"
	"scooter/internal/migrate"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// seed1Digest pins Generate(1, 200). The generated scripts are the
// solver-hard workload's inputs: a generator edit changes what the
// benchmark measures and must update this digest on purpose.
const seed1Digest = "fb616732c1630c43dd3db68e7915a40e132554c85d03a79f5d06b0a7aa5f6bb4"

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := hardgen.Generate(1, 200), hardgen.Generate(1, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 1 differ")
	}
	h := sha256.New()
	for _, s := range a {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%t\x00", s.Name, s.Spec, s.Migration, s.Safe)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != seed1Digest {
		t.Errorf("Generate(1, 200) digest %s, pinned %s", got, seed1Digest)
	}
}

// TestScriptsReachTheorySearch keeps the workload hard: at least 40% of the
// scripts must pose a query that survives preprocessing into the solver's
// theory checks, and every safe-by-construction script must be accepted.
func TestScriptsReachTheorySearch(t *testing.T) {
	scripts := hardgen.Generate(1, 200)
	theory, safe := 0, 0
	for _, hs := range scripts {
		f, err := parser.ParsePolicyFile(hs.Spec)
		if err != nil {
			t.Fatalf("%s: spec: %v", hs.Name, err)
		}
		s := schema.FromPolicyFile(f)
		if err := typer.New(s).CheckSchema(); err != nil {
			t.Fatalf("%s: spec: %v", hs.Name, err)
		}
		script, err := parser.ParseMigration(hs.Migration)
		if err != nil {
			t.Fatalf("%s: migration: %v", hs.Name, err)
		}
		var stats verify.Stats
		opts := migrate.DefaultOptions()
		opts.Cache = verify.NewCache(verify.DefaultCacheCapacity)
		opts.Stats = &stats
		_, err = migrate.Verify(s, script, opts)
		if hs.Safe {
			safe++
			if err != nil {
				t.Errorf("%s: safe-by-construction migration rejected: %v\n%s", hs.Name, err, hs.Migration)
			}
		}
		if stats.Snapshot().TheoryChecks > 0 {
			theory++
		}
	}
	if theory*10 < len(scripts)*4 {
		t.Errorf("%d of %d scripts reached theory checks, want at least 40%%", theory, len(scripts))
	}
	if safe == 0 {
		t.Error("no script is safe by construction")
	}
	t.Logf("%d of %d scripts reached theory checks; %d safe by construction", theory, len(scripts), safe)
}
