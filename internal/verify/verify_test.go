package verify

import (
	"strings"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
)

// loadSchema parses and checks a policy file into a schema.
func loadSchema(t testing.TB, src string) *schema.Schema {
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

// policyOn parses and typechecks a policy for a model.
func policyOn(t testing.TB, s *schema.Schema, model, src string) ast.Policy {
	t.Helper()
	p, err := parser.ParsePolicy(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if err := typer.New(s).CheckPolicy(model, p); err != nil {
		t.Fatalf("typecheck %q: %v", src, err)
	}
	return p
}

const chitterSchema = `
@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] + User::Find({isAdmin: true}) },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  adminLevel: I64 { read: public, write: none },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) }}
`

func check(t *testing.T, s *schema.Schema, model, oldP, newP string) *Result {
	t.Helper()
	c := New(s, nil)
	res, err := c.CheckStrictness(model, policyOn(t, s, model, oldP), policyOn(t, s, model, newP))
	if err != nil {
		t.Fatalf("CheckStrictness(%q -> %q): %v", oldP, newP, err)
	}
	return res
}

func TestIdenticalPoliciesSafe(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	cases := []string{
		`public`,
		`none`,
		`u -> [u]`,
		`u -> [u] + User::Find({isAdmin: true})`,
		`u -> User::Find({adminLevel >= 1})`,
	}
	for _, p := range cases {
		if res := check(t, s, "User", p, p); res.Verdict != Safe {
			t.Errorf("policy %q vs itself: %v", p, res.Verdict)
		}
	}
}

func TestStrengtheningIsSafe(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	cases := [][2]string{
		{`public`, `none`},
		{`public`, `u -> [u]`},
		{`u -> [u] + User::Find({isAdmin: true})`, `u -> [u]`},
		{`u -> [u] + User::Find({isAdmin: true})`, `u -> User::Find({isAdmin: true})`},
		{`u -> User::Find({adminLevel >= 1})`, `u -> User::Find({adminLevel >= 2})`},
		{`u -> User::Find({adminLevel > 0})`, `u -> User::Find({adminLevel: 2})`},
		{`u -> [u] + u.followers`, `u -> [u]`},
		{`public`, `_ -> [Unauthenticated]`},
	}
	for _, c := range cases {
		if res := check(t, s, "User", c[0], c[1]); res.Verdict != Safe {
			t.Errorf("%q -> %q should be safe, got %v", c[0], c[1], res.Verdict)
		}
	}
}

func TestWeakeningIsViolation(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	cases := [][2]string{
		{`none`, `public`},
		{`u -> [u]`, `public`},
		{`u -> [u]`, `u -> [u] + User::Find({isAdmin: true})`},
		{`u -> User::Find({adminLevel: 2})`, `u -> User::Find({adminLevel >= 1})`},
		{`u -> User::Find({adminLevel: 2})`, `u -> User::Find({adminLevel >= 0})`},
		{`_ -> [Unauthenticated]`, `public`},
		{`u -> [u]`, `u -> [u] + u.followers`},
	}
	for _, c := range cases {
		res := check(t, s, "User", c[0], c[1])
		if res.Verdict != Violation {
			t.Errorf("%q -> %q should be a violation, got %v", c[0], c[1], res.Verdict)
			continue
		}
		if res.Counterexample == nil {
			t.Errorf("%q -> %q: missing counterexample", c[0], c[1])
		}
	}
}

// TestChitterModeratorBug reproduces the paper's §2.2 policy migration bug:
// replacing "user + admins" with "user + anyone whose adminLevel >= 0"
// accidentally grants every user write access to bios.
func TestChitterModeratorBug(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	oldP := `u -> [u] + User::Find({isAdmin: true})`
	newP := `u -> [u] + User::Find({adminLevel >= 0})`
	res := check(t, s, "User", oldP, newP)
	if res.Verdict != Violation {
		t.Fatalf("expected violation, got %v", res.Verdict)
	}
	ce := res.Counterexample.String()
	if !strings.Contains(ce, "Principal:") || !strings.Contains(ce, "CAN NOW ACCESS") {
		t.Errorf("counterexample format:\n%s", ce)
	}
	// The witness principal must be a non-admin with adminLevel >= 0.
	t.Logf("counterexample:\n%s", ce)
}

// TestPriorDefinitions reproduces §4 "Using Prior Definitions": after
// AddField(adminLevel, u -> if u.isAdmin then 2 else 0), the policy
// Find({adminLevel: 2}) is provably equivalent to Find({isAdmin: true}).
func TestPriorDefinitions(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	defs := equiv.New()
	initP, err := parser.ParsePolicy(`u -> if u.isAdmin then 2 else 0`)
	if err != nil {
		t.Fatal(err)
	}
	if err := typer.New(s).CheckInitFn("User", initP.Fn, ast.I64Type); err != nil {
		t.Fatal(err)
	}
	defs.Record("User", "adminLevel", initP.Fn)

	c := New(s, defs)
	oldP := policyOn(t, s, "User", `u -> [u] + User::Find({isAdmin: true})`)
	newP := policyOn(t, s, "User", `u -> [u] + User::Find({adminLevel: 2})`)
	res, err := c.CheckStrictness("User", oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Errorf("with prior definitions, adminLevel:2 == isAdmin: got %v", res.Verdict)
	}

	// §6.4: adminLevel >= 1 is also equivalent under the definition, since
	// no user has level 1.
	newP2 := policyOn(t, s, "User", `u -> [u] + User::Find({adminLevel >= 1})`)
	res, err = c.CheckStrictness("User", oldP, newP2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Errorf("adminLevel >= 1 is equivalent under prior definitions: got %v", res.Verdict)
	}

	// Without definitions the same update must be rejected.
	cNoDefs := New(s, nil)
	res, err = cNoDefs.CheckStrictness("User", oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Violation {
		t.Errorf("without definitions, adminLevel:2 is unrelated to isAdmin: got %v", res.Verdict)
	}
}

// TestChitterBioLeak reproduces the §2.1 schema migration bug: a public bio
// initialised from the follower-visible pronouns field leaks data.
func TestChitterBioLeak(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	c := New(s, nil)

	bio := &schema.Field{
		Name: "bio", Type: ast.StringType,
		Read:  policyOn(t, s, "User", `public`),
		Write: policyOn(t, s, "User", `u -> [u] + User::Find({isAdmin: true})`),
	}
	init, err := parser.ParsePolicy(`u -> "I'm " + u.name + "(" + u.pronouns + ")"`)
	if err != nil {
		t.Fatal(err)
	}
	if err := typer.New(s).CheckInitFn("User", init.Fn, ast.StringType); err != nil {
		t.Fatal(err)
	}
	flows := []FieldFlow{
		{SrcModel: "User", SrcField: "name", DstModel: "User", DstField: "bio"},
		{SrcModel: "User", SrcField: "pronouns", DstModel: "User", DstField: "bio"},
	}
	leak, err := c.CheckAddFieldLeaks("User", bio, init.Fn, flows)
	if err != nil {
		t.Fatal(err)
	}
	if leak == nil {
		t.Fatal("expected a leak: pronouns are follower-visible, bio is public")
	}
	if leak.Flow.SrcField != "pronouns" {
		t.Errorf("leak should come from pronouns, got %s", leak.Flow)
	}
	t.Logf("leak %s:\n%s", leak.Flow, leak.Result.Counterexample)
}

// TestBioWithoutPronounsSafe checks the fixed migration from §2.2.
func TestBioWithoutPronounsSafe(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	c := New(s, nil)
	bio := &schema.Field{
		Name: "bio", Type: ast.StringType,
		Read:  policyOn(t, s, "User", `public`),
		Write: policyOn(t, s, "User", `u -> [u]`),
	}
	flows := []FieldFlow{{SrcModel: "User", SrcField: "name", DstModel: "User", DstField: "bio"}}
	leak, err := c.CheckAddFieldLeaks("User", bio, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	if leak != nil {
		t.Fatalf("name is public; no leak expected, got %s", leak.Flow)
	}
}

func TestEquivalenceCheck(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	c := New(s, nil)
	p1 := policyOn(t, s, "User", `u -> [u] + User::Find({isAdmin: true})`)
	p2 := policyOn(t, s, "User", `u -> User::Find({isAdmin: true}) + [u]`)
	okEq, err := c.CheckEquivalence("User", p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !okEq {
		t.Error("union is commutative; policies are equivalent")
	}
	p3 := policyOn(t, s, "User", `u -> [u]`)
	okEq, err = c.CheckEquivalence("User", p1, p3)
	if err != nil {
		t.Fatal(err)
	}
	if okEq {
		t.Error("policies differ")
	}
}

func TestSetSubtractionDenyList(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	// public - followers is weaker than... compare against [u]:
	// old: all except followers; new: [u] — u is not necessarily excluded…
	// Strengthening from "everyone but followers" to "only the user" is
	// NOT safe: u might be in their own followers set.
	res := check(t, s, "User",
		`u -> public - u.followers`,
		`u -> [u]`)
	if res.Verdict != Violation {
		t.Errorf("u may be their own follower; got %v", res.Verdict)
	}
	// But "none" is always a safe strengthening.
	res = check(t, s, "User", `u -> public - u.followers`, `none`)
	if res.Verdict != Safe {
		t.Errorf("none is strictest; got %v", res.Verdict)
	}
}

func TestStaticPrincipalKinds(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	// Weakening towards a static principal must be caught.
	res := check(t, s, "User", `u -> [u]`, `u -> [u, Unauthenticated]`)
	if res.Verdict != Violation {
		t.Fatalf("adding Unauthenticated is a weakening, got %v", res.Verdict)
	}
	if res.Counterexample.Principal != "Unauthenticated" {
		t.Errorf("witness principal should be Unauthenticated, got %s", res.Counterexample.Principal)
	}
}

func TestMapOverFindSafe(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	// Find(...).map(x -> x.id) is the same set as Find(...).
	res := check(t, s, "User",
		`u -> User::Find({isAdmin: true})`,
		`u -> User::Find({isAdmin: true}).map(x -> x.id)`)
	if res.Verdict != Safe {
		t.Errorf("identity map should be safe, got %v", res.Verdict)
	}
	res = check(t, s, "User",
		`u -> User::Find({isAdmin: true}).map(x -> x.id)`,
		`u -> User::Find({isAdmin: true})`)
	if res.Verdict != Safe {
		t.Errorf("identity map reverse should be safe, got %v", res.Verdict)
	}
}

func TestDateTimeNowPolicies(t *testing.T) {
	src := `
@principal
User {
  create: public,
  delete: none,
  joined: DateTime { read: public, write: none },
  isAdmin: Bool { read: public, write: none }}
`
	s := loadSchema(t, src)
	// Both policies reference now; Sidecar uses one shared value (§4), so
	// these are equivalent.
	res := check(t, s, "User",
		`u -> User::Find({joined < now})`,
		`u -> User::Find({joined < now})`)
	if res.Verdict != Safe {
		t.Errorf("same-now policies equivalent, got %v", res.Verdict)
	}
	// joined < d1-1-2020 is stricter than joined < d1-1-2030.
	res = check(t, s, "User",
		`u -> User::Find({joined < d1-1-2030-00:00:00})`,
		`u -> User::Find({joined < d1-1-2020-00:00:00})`)
	if res.Verdict != Safe {
		t.Errorf("earlier cutoff is stricter, got %v", res.Verdict)
	}
	res = check(t, s, "User",
		`u -> User::Find({joined < d1-1-2020-00:00:00})`,
		`u -> User::Find({joined < d1-1-2030-00:00:00})`)
	if res.Verdict != Violation {
		t.Errorf("later cutoff is weaker, got %v", res.Verdict)
	}
}

func TestCounterexampleRendering(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	res := check(t, s, "User",
		`u -> User::Find({adminLevel: 2})`,
		`u -> User::Find({adminLevel >= 1})`)
	if res.Verdict != Violation {
		t.Fatalf("got %v", res.Verdict)
	}
	out := res.Counterexample.String()
	for _, want := range []string{"Principal: User(", "# CAN NOW ACCESS:", "adminLevel:"} {
		if !strings.Contains(out, want) {
			t.Errorf("counterexample missing %q:\n%s", want, out)
		}
	}
}
