package equivcheck

import (
	"strings"
	"testing"

	"scooter/internal/casestudies"
	"scooter/internal/migrate"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
)

// TestMachineIntegerEdges: `p.level - 1 > 5` and `p.level > 6` agree on
// every small integer but not at MinInt64, where the subtraction wraps to
// MaxInt64. The I64 domain must seed that value.
func TestMachineIntegerEdges(t *testing.T) {
	before, err := specfmt.Parse(`
@principal
User {
  create: public,
  delete: none,
  name: String { read: public, write: public }}
Post {
  create: public,
  delete: none,
  level: I64 { read: public, write: public },
  author: Id(User) { read: public, write: public }}
`)
	if err != nil {
		t.Fatal(err)
	}
	script := func(init string) string {
		return "Post::AddField(hi: Bool { read: public, write: public }, p -> " + init + ");"
	}
	a, err := parser.ParseMigration(script("p.level - 1 > 5"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parser.ParseMigration(script("p.level > 6"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(before, "a.scm", a, "b.scm", b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	if rep.Verdict != NotEquivalent || !strings.Contains(out, "level: -9223372036854775808") {
		t.Fatalf("want NOT EQUIVALENT with a MinInt64 witness, got:\n%s", out)
	}
}

// TestOnlineMatchesStopTheWorld runs every corpus script that adds a field
// over every universe up to DefaultBound, once stop-the-world and once
// online at batch sizes 1 and migrate.DefaultBatchSize. Both runs reject
// the universe, or they leave canonically equal stores.
func TestOnlineMatchesStopTheWorld(t *testing.T) {
	studies, err := casestudies.AllStudies()
	if err != nil {
		t.Fatal(err)
	}
	scripts, universes := 0, 0
	for _, study := range studies {
		parsed, err := study.ParseScripts()
		if err != nil {
			t.Fatal(err)
		}
		cur := schema.New()
		for i, script := range parsed {
			name := study.Key + "/" + study.Scripts[i].Name
			before := cur
			s, err := newSide(before, name, script)
			if err != nil {
				t.Fatal(err)
			}
			cur = s.plan.After
			if len(s.inits) == 0 {
				continue
			}
			scripts++
			uset, err := buildUniverses(before, s, s, DefaultBound)
			if err != nil {
				t.Fatal(err)
			}
			if uset.total > DefaultMaxUniverses {
				t.Fatalf("%s: %d universes exceed the cap", name, uset.total)
			}
			_, err = uset.each(func(u seededUniverse) (bool, error) {
				universes++
				stw := u.seed()
				errSTW := s.exec(stw)
				for _, batch := range []int{1, migrate.DefaultBatchSize} {
					online := u.seed()
					errOnline := migrate.ExecuteFromAt(s.plan, online, nil, migrate.JournalEntry{AppliedAt: nowUnix},
						migrate.Options{Online: true, BatchSize: batch}, nil, nil)
					if errSTW != nil && errOnline != nil {
						continue
					}
					if (errSTW != nil) != (errOnline != nil) {
						t.Fatalf("%s, batch %d, %s: stop-the-world %v, online %v",
							name, batch, describeSeed(u), errSTW, errOnline)
					}
					if div := diffStores(stw, online); div != nil {
						t.Fatalf("%s, batch %d, %s: stores diverge at %s %s.%s: %s vs %s",
							name, batch, describeSeed(u), div.collection, div.docID, div.field, div.va, div.vb)
					}
				}
				return false, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if scripts < 5 || universes == 0 {
		t.Fatalf("only %d AddField scripts and %d universes; corpus coverage regressed", scripts, universes)
	}
	t.Logf("%d AddField scripts, %d universes", scripts, universes)
}

// describeSeed renders a universe's documents for a failure message.
func describeSeed(u seededUniverse) string {
	var sb strings.Builder
	sb.WriteString(u.describe())
	for _, rec := range universeRecords(u) {
		sb.WriteString("; " + rec.String())
	}
	return sb.String()
}
