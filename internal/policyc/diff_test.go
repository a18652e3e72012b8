package policyc_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/policyc"
	"scooter/internal/schema"
	"scooter/internal/store"
	"scooter/internal/typer"
)

// specGen composes random policy specs from a closed template pool: every
// production is inside the fragment both engines support, so any verdict
// divergence is a real compiler bug, not a grammar accident. The pool
// deliberately excludes now() — clock-dependent policies are pinned
// separately and would make failures time-sensitive.
type specGen struct {
	r *rand.Rand
}

func (g *specGen) name() string {
	return []string{"alice", "bob", "carol", "dana"}[g.r.Intn(4)]
}

func (g *specGen) boolExpr() string {
	switch g.r.Intn(6) {
	case 0:
		return "u.isAdmin"
	case 1:
		return fmt.Sprintf("u.level == %d", g.r.Intn(4))
	case 2:
		return fmt.Sprintf("u.level < %d", g.r.Intn(4))
	case 3:
		return fmt.Sprintf("u.level >= %d", g.r.Intn(4))
	case 4:
		return fmt.Sprintf("u.level != %d", g.r.Intn(4))
	default:
		return fmt.Sprintf("u.name == %q", g.name())
	}
}

func (g *specGen) find() string {
	switch g.r.Intn(4) {
	case 0:
		return "User::Find({isAdmin: true})"
	case 1:
		return "User::Find({isAdmin: false})"
	case 2:
		return fmt.Sprintf("User::Find({level: %d})", g.r.Intn(4))
	default:
		return fmt.Sprintf("User::Find({isAdmin: true, level: %d})", g.r.Intn(4))
	}
}

func (g *specGen) atom() string {
	switch g.r.Intn(5) {
	case 0:
		return "[u]"
	case 1:
		return "[Unauthenticated]"
	case 2:
		return "u.followers"
	case 3:
		return g.find()
	default:
		return "[]"
	}
}

func (g *specGen) setExpr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.r.Intn(4) {
	case 0:
		return g.atom()
	case 1:
		return g.setExpr(depth-1) + " + " + g.setExpr(depth-1)
	default:
		return fmt.Sprintf("if %s then %s else %s",
			g.boolExpr(), g.setExpr(depth-1), g.setExpr(depth-1))
	}
}

func (g *specGen) policy() string {
	switch g.r.Intn(8) {
	case 0:
		return "public"
	case 1:
		return "none"
	case 2:
		return "_ -> [Unauthenticated]"
	case 3:
		return "_ -> " + g.find()
	default:
		return "u -> " + g.setExpr(2)
	}
}

func (g *specGen) spec() string {
	p := make([]any, 12)
	for i := range p {
		p[i] = g.policy()
	}
	return fmt.Sprintf(`
@static-principal
Unauthenticated

@principal
User {
  create: %s,
  delete: %s,
  name: String { read: %s, write: %s },
  level: I64 { read: %s, write: %s },
  score: F64 { read: %s, write: %s },
  isAdmin: Bool { read: %s, write: %s },
  followers: Set(Id(User)) { read: %s, write: %s }}
`, p...)
}

func loadSpec(src string) (*schema.Schema, error) {
	f, err := parser.ParsePolicyFile(src)
	if err != nil {
		return nil, err
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		return nil, err
	}
	return s, nil
}

// seedDocs populates a store with users whose field values and follower
// graphs are random, including dangling follower references (satellite
// requirement: compiled and interpreted must also agree on broken data).
func seedDocs(r *rand.Rand, db *store.DB) (ids []store.ID, dangling store.ID) {
	users := db.Collection("User")
	names := []string{"alice", "bob", "carol", "dana", "erin"}
	for i := 0; i < 5; i++ {
		ids = append(ids, users.Insert(store.Doc{
			"name":      names[i],
			"level":     int64(r.Intn(5)),
			"score":     float64(r.Intn(10)) / 2,
			"isAdmin":   r.Intn(3) == 0,
			"followers": []store.Value{},
		}))
	}
	dangling = ids[len(ids)-1] + 1000
	for _, id := range ids {
		var fs []store.Value
		for _, f := range ids {
			if f != id && r.Intn(3) == 0 {
				fs = append(fs, f)
			}
		}
		if r.Intn(3) == 0 {
			fs = append(fs, dangling)
		}
		if len(fs) > 0 {
			users.Update(id, store.Doc{"followers": fs})
		}
	}
	return ids, dangling
}

func allPrincipals(ids []store.ID, dangling store.ID) []eval.Principal {
	princs := []eval.Principal{
		eval.StaticPrincipal("Unauthenticated"),
		eval.InstancePrincipal("User", dangling),
	}
	for _, id := range ids {
		princs = append(princs, eval.InstancePrincipal("User", id))
	}
	return princs
}

// specPolicies returns the compiled policies of the User model in a fixed
// order: create, delete, then each field's read and write.
func specPolicies(s *schema.Schema, table *policyc.Table) []*policyc.Policy {
	m := s.Model("User")
	mp := table.Model("User")
	pols := []*policyc.Policy{mp.Create, mp.Delete}
	for i := range m.Fields {
		pols = append(pols, mp.FieldAt(i).Read, mp.FieldAt(i).Write)
	}
	return pols
}

// TestDifferentialCompiledVsInterpreter is the satellite fuzz test:
// generated specs × generated docs × all principals, with the compiled
// closures and the interpreter required to agree on every single verdict.
// Seeds are fixed, so a failure reproduces deterministically; run under
// -race this also exercises concurrent-safety of the shared Table.
func TestDifferentialCompiledVsInterpreter(t *testing.T) {
	const nSpecs = 60
	valid := 0
	for seed := 0; seed < nSpecs; seed++ {
		g := &specGen{r: rand.New(rand.NewSource(int64(seed)))}
		src := g.spec()
		s, err := loadSpec(src)
		if err != nil {
			// A composition the typer rejects (e.g. a principal set mixing
			// element types); the count check below bounds how often.
			continue
		}
		valid++
		db := store.Open()
		ids, dangling := seedDocs(g.r, db)
		table := policyc.Compile(s)
		if _, fallbacks := table.Counts(); fallbacks != 0 {
			t.Fatalf("seed %d: %d interpreter fallbacks on in-fragment spec:\n%s",
				seed, fallbacks, src)
		}
		ev := eval.New(s, db)
		pols := specPolicies(s, table)
		users := db.Collection("User")
		for _, id := range ids {
			doc, ok := users.Get(id)
			if !ok {
				t.Fatal("seeded doc missing")
			}
			for _, pr := range allPrincipals(ids, dangling) {
				for pi, pol := range pols {
					got, gerr := pol.Eval(ev, pr, doc)
					want, werr := ev.Allowed(pr, "User", doc, pol.Source())
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("seed %d policy %d doc %v principal %v: compiled err %v, interpreter err %v\nspec:%s",
							seed, pi, id, pr, gerr, werr, src)
					}
					if gerr == nil && got != want {
						t.Fatalf("seed %d policy %d doc %v principal %v: compiled %v, interpreter %v\nspec:%s",
							seed, pi, id, pr, got, want, src)
					}
				}
			}
		}
	}
	if valid < nSpecs/2 {
		t.Fatalf("only %d/%d generated specs typechecked; generator drifted from the grammar", valid, nSpecs)
	}
}

func fieldSet(s *schema.Schema, o *orm.Object) string {
	if o == nil {
		return "<nil>"
	}
	var names []string
	for _, f := range s.Model("User").Fields {
		if _, ok := o.Get(f.Name); ok {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// TestDifferentialStrippedFields drives the same generated specs through
// the ORM read path: the stripped-field set of every FindByID must be
// identical with compiled dispatch on and off, and a third connection in
// oracle mode must never report a divergence.
func TestDifferentialStrippedFields(t *testing.T) {
	const nSpecs = 30
	for seed := 0; seed < nSpecs; seed++ {
		g := &specGen{r: rand.New(rand.NewSource(int64(1000 + seed)))}
		src := g.spec()
		s, err := loadSpec(src)
		if err != nil {
			continue
		}
		db := store.Open()
		ids, dangling := seedDocs(g.r, db)

		compiled := orm.Open(s, db)
		interp := orm.Open(s, db)
		interp.SetCompiledPolicies(false)
		oracle := orm.Open(s, db)
		oracle.SetInterpretedOracle(true)

		for _, pr := range allPrincipals(ids, dangling) {
			for _, id := range ids {
				a, aerr := compiled.AsPrinc(pr).FindByID("User", id)
				b, berr := interp.AsPrinc(pr).FindByID("User", id)
				if (aerr != nil) != (berr != nil) {
					t.Fatalf("seed %d doc %v principal %v: compiled err %v, interpreted err %v\nspec:%s",
						seed, id, pr, aerr, berr, src)
				}
				if aerr == nil && fieldSet(s, a) != fieldSet(s, b) {
					t.Fatalf("seed %d doc %v principal %v: compiled fields {%s}, interpreted {%s}\nspec:%s",
						seed, id, pr, fieldSet(s, a), fieldSet(s, b), src)
				}
				if _, oerr := oracle.AsPrinc(pr).FindByID("User", id); (oerr != nil) != (aerr != nil) {
					t.Fatalf("seed %d doc %v principal %v: oracle flagged a divergence: %v\nspec:%s",
						seed, id, pr, oerr, src)
				}
			}
		}
	}
}
