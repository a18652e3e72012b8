// Package hardgen generates seeded Sidecar inputs whose strictness queries
// survive preprocessing and reach the SMT solver's theory search, which the
// shipped corpus never does: every corpus query is refuted by unit
// propagation.
//
// Each script is one Sidecar invocation: a policy file declaring a User
// principal (isAdmin, adminLevel, bestFriend, followers plus four String
// fields with random read-policy trees) and a migration that rewrites every
// String field's read policy and adds one field initialised from another.
// Most rewrites are safe by construction: `tighten(old) - x`, where tighten
// narrows every adminLevel bound the policy grants through and widens every
// bound it revokes through, so the proof needs the arithmetic theory rather
// than propositional reasoning alone. The other rewrites are random and may
// be rejected.
//
// The set-builder leaves (`Find(..).map(..)` and `flat_map`) are proved by
// bounded instantiation, which may report a spurious violation when a
// builder must be matched against itself under negation. A builder
// therefore appears only where no proof of a constructed rewrite needs
// that match: in a subtrahend the later AddField does not read through, in
// the AddField's own subtrahend, and in random rewrites. The spec's
// original policies use none.
package hardgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Fields is the number of String fields whose read policies each script
// rewrites.
const Fields = 4

// safeShare is the probability that one policy rewrite is safe by
// construction.
const safeShare = 0.9

// Script is one generated Sidecar invocation.
type Script struct {
	Name string
	// Spec is the pre-migration policy file.
	Spec string
	// Migration rewrites every String field's read policy, then adds one
	// field whose initialiser reads a String field.
	Migration string
	// Safe reports that every command is safe by construction, so Sidecar
	// must accept the migration. A script with a random rewrite may still
	// be safe; only the constructed ones are known to be.
	Safe bool
}

// Generate returns n scripts drawn from seed. The same seed always yields
// byte-identical scripts.
func Generate(seed int64, n int) []Script {
	r := rand.New(rand.NewSource(seed))
	out := make([]Script, n)
	for i := range out {
		out[i] = script(r, fmt.Sprintf("hard-%d-%04d", seed, i))
	}
	return out
}

func script(r *rand.Rand, name string) Script {
	old := make([]*expr, Fields)
	for i := range old {
		old[i] = tree(r, 1+r.Intn(3), false)
	}
	var spec strings.Builder
	spec.WriteString(`@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  isAdmin: Bool { read: public, write: u -> User::Find({isAdmin: true}) },
  adminLevel: I64 { read: public, write: u -> User::Find({isAdmin: true}) },
  bestFriend: Id(User) { read: public, write: u -> [u] },
  followers: Set(Id(User)) { read: public, write: u -> [u] },
`)
	for i, p := range old {
		fmt.Fprintf(&spec, "  f%d: String { read: u -> %s, write: u -> [u] },\n", i, p)
	}
	spec.WriteString("}\n")

	src := r.Intn(Fields)
	safe := true
	next := make([]*expr, Fields)
	var mig strings.Builder
	for i, p := range old {
		var ok bool
		next[i], ok = rewrite(r, p, i != src)
		safe = safe && ok
		fmt.Fprintf(&mig, "User::UpdateFieldReadPolicy(f%d, u -> %s);\n", i, next[i])
	}
	read, ok := rewrite(r, next[src], true)
	safe = safe && ok
	fmt.Fprintf(&mig, "User::AddField(g : String { read: u -> %s, write: u -> [u] }, u -> u.f%d);\n", read, src)
	return Script{Name: name, Spec: spec.String(), Migration: mig.String(), Safe: safe}
}

// rewrite draws the successor of policy p: `tighten(p) - x` with
// probability safeShare, reported safe, and otherwise a random tree,
// reported unsafe. builders allows set-builder leaves in x.
func rewrite(r *rand.Rand, p *expr, builders bool) (*expr, bool) {
	if r.Float64() < safeShare {
		return &expr{op: "-", a: p.tighten(true), b: tree(r, 1+r.Intn(2), builders)}, true
	}
	return tree(r, 1+r.Intn(3), true), false
}

// expr is a principal-set expression over the binder u: a leaf, an
// adminLevel filter, or a combinator (`+`, `-`, `if`) over a and b.
type expr struct {
	op   string // "leaf", "level", "+", "-" or "if"
	text string // the leaf, or the if-condition
	cmp  string // the adminLevel filter's operator
	k    int    // the adminLevel filter's bound
	a, b *expr
}

func (e *expr) String() string {
	switch e.op {
	case "leaf":
		return e.text
	case "level":
		return fmt.Sprintf("User::Find({adminLevel %s %d})", e.cmp, e.k)
	case "if":
		return fmt.Sprintf("if %s then (%s) else (%s)", e.text, e.a, e.b)
	}
	return fmt.Sprintf("(%s) %s (%s)", e.a, e.op, e.b)
}

// tighten returns a copy of e that admits no principal e does not: every
// adminLevel filter in a granting position (positive) is narrowed and every
// one in a revoking position is widened. `+` and `if` keep the polarity of
// their operands; the right operand of `-` flips it.
func (e *expr) tighten(positive bool) *expr {
	c := *e
	switch e.op {
	case "level":
		narrow := positive
		switch e.cmp {
		case ">=", ">":
			if narrow {
				c.k++
			} else {
				c.k--
			}
		case "<", "<=":
			if narrow {
				c.k--
			} else {
				c.k++
			}
		}
	case "+", "if":
		c.a, c.b = e.a.tighten(positive), e.b.tighten(positive)
	case "-":
		c.a, c.b = e.a.tighten(positive), e.b.tighten(!positive)
	}
	return &c
}

// tree draws an expression of at most depth levels: a leaf at depth 1,
// `+`, `-` or `if` above.
func tree(r *rand.Rand, depth int, builders bool) *expr {
	if depth <= 1 {
		return leaf(r, builders)
	}
	a, b := tree(r, depth-1, builders), tree(r, 1+r.Intn(depth-1), builders)
	switch r.Intn(3) {
	case 0:
		return &expr{op: "+", a: a, b: b}
	case 1:
		return &expr{op: "-", a: a, b: b}
	}
	c := "u.isAdmin"
	if r.Intn(2) == 0 {
		c = fmt.Sprintf("u.adminLevel >= %d", r.Intn(4))
	}
	return &expr{op: "if", text: c, a: a, b: b}
}

var findOps = []string{":", ">=", ">", "<", "<="}

// leaf draws one of the plain leaves, or with builders also one of the two
// set-builder leaves. The adminLevel filter is drawn twice as often as the
// other leaves: its bounds are what the arithmetic theory decides.
func leaf(r *rand.Rand, builders bool) *expr {
	kinds := 7
	if builders {
		kinds = 9
	}
	text := ""
	switch r.Intn(kinds) {
	case 0:
		text = "[u]"
	case 1:
		text = "[u.bestFriend]"
	case 2:
		text = "u.followers"
	case 3:
		text = "User::Find({isAdmin: true})"
	case 4, 5:
		return &expr{op: "level", cmp: findOps[r.Intn(len(findOps))], k: r.Intn(4)}
	case 6:
		text = "[Unauthenticated]"
	case 7:
		text = "User::Find({isAdmin: true}).map(x -> x.bestFriend)"
	default:
		text = "u.followers.flat_map(f -> User::ById(f).followers)"
	}
	return &expr{op: "leaf", text: text}
}
