package casestudies

import (
	"fmt"
	"path/filepath"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/equivcheck"
	"scooter/internal/migrate"
	"scooter/internal/schema"
	"scooter/internal/verify"
)

// cmdFootprint is the set of resources a command reads or writes: model
// names ("m:"), static principals and other free variables in its policies
// and initialisers ("s:"). Two adjacent commands with disjoint footprints
// commute — swapping them cannot change the final schema or store.
// Over-approximating (the builtin `now` lands in the var bucket) only
// shrinks the set of detected commuting pairs, never misidentifies one.
func cmdFootprint(cmd ast.Command) map[string]bool {
	fp := map[string]bool{}
	model := func(name string) { fp["m:"+name] = true }
	expr := func(e ast.Expr) {
		if e == nil {
			return
		}
		for m := range ast.ReferencedModels(e) {
			model(m)
		}
		for v := range ast.ReferencedVars(e) {
			fp["s:"+v] = true
		}
	}
	policy := func(p ast.Policy) {
		if p.Kind == ast.PolicyFunc && p.Fn != nil {
			expr(p.Fn)
		}
	}
	optPolicy := func(p *ast.Policy) {
		if p != nil {
			policy(*p)
		}
	}
	switch c := cmd.(type) {
	case *ast.CreateModel:
		model(c.Model.Name)
		policy(c.Model.Create)
		policy(c.Model.Delete)
		for _, f := range c.Model.Fields {
			policy(f.Read)
			policy(f.Write)
			if f.Type.Kind == ast.TId {
				model(f.Type.Model)
			}
		}
	case *ast.DeleteModel:
		model(c.ModelName)
	case *ast.AddField:
		model(c.ModelName)
		policy(c.Field.Read)
		policy(c.Field.Write)
		if c.Field.Type.Kind == ast.TId {
			model(c.Field.Type.Model)
		}
		expr(c.Init)
	case *ast.RemoveField:
		model(c.ModelName)
	case *ast.UpdatePolicy:
		model(c.ModelName)
		policy(c.NewPolicy)
	case *ast.WeakenPolicy:
		model(c.ModelName)
		policy(c.NewPolicy)
	case *ast.UpdateFieldPolicy:
		model(c.ModelName)
		optPolicy(c.Read)
		optPolicy(c.Write)
	case *ast.WeakenFieldPolicy:
		model(c.ModelName)
		optPolicy(c.Read)
		optPolicy(c.Write)
	case *ast.AddStaticPrincipal:
		fp["s:"+c.PrincipalName] = true
	case *ast.RemoveStaticPrincipal:
		fp["s:"+c.PrincipalName] = true
	case *ast.AddPrincipal:
		model(c.ModelName)
	case *ast.RemovePrincipal:
		model(c.ModelName)
	}
	return fp
}

// swapCommuting returns the script with its first adjacent pair of
// disjoint-footprint commands swapped, or ok=false if no pair commutes.
func swapCommuting(script *ast.MigrationScript) (*ast.MigrationScript, bool) {
	for i := 0; i+1 < len(script.Commands); i++ {
		a, b := cmdFootprint(script.Commands[i]), cmdFootprint(script.Commands[i+1])
		disjoint := true
		for k := range a {
			if b[k] {
				disjoint = false
				break
			}
		}
		if !disjoint {
			continue
		}
		cmds := append([]ast.Command(nil), script.Commands...)
		cmds[i], cmds[i+1] = cmds[i+1], cmds[i]
		return &ast.MigrationScript{Commands: cmds}, true
	}
	return nil, false
}

// mutateInit returns the script with one AddField initialiser replaced by
// a distinctive constant — but only an AddField on a model that predates
// the script, so the bounded universes seed documents that observe the
// initialiser. ok=false if no such AddField exists.
func mutateInit(before *schema.Schema, script *ast.MigrationScript) (*ast.MigrationScript, bool) {
	for i, cmd := range script.Commands {
		af, isAdd := cmd.(*ast.AddField)
		if !isAdd || before.Model(af.ModelName) == nil {
			continue
		}
		pos := af.CmdPos()
		var body ast.Expr
		switch af.Field.Type.Kind {
		case ast.TString:
			body = ast.NewStringLit(pos, "__mutant__")
		case ast.TI64:
			body = ast.NewIntLit(pos, 424242)
		case ast.TF64:
			body = ast.NewFloatLit(pos, 424242.5)
		case ast.TDateTime:
			body = ast.NewDateTimeLit(pos, 424242, "1970-01-05T21:50:42Z")
		case ast.TBool:
			lit := true
			if af.Init.Body.String() == "true" {
				lit = false
			}
			body = ast.NewBoolLit(pos, lit)
		default:
			continue
		}
		mutant := ast.NewFuncLit(pos, "_", body)
		if mutant.String() == af.Init.String() {
			continue
		}
		cp := *af
		cp.Init = mutant
		cmds := append([]ast.Command(nil), script.Commands...)
		cmds[i] = &cp
		return &ast.MigrationScript{Commands: cmds}, true
	}
	return nil, false
}

// TestCorpusEquivalence replays the whole case-study corpus through the
// bounded equivalence checker: every script with a commuting adjacent
// command pair proves equivalent to its reordered variant (and a re-run
// over the warm verdict store reports it byte-identically), and every
// script with a mutable initialiser on a pre-existing model yields a
// concrete counterexample once mutated.
func TestCorpusEquivalence(t *testing.T) {
	studies, err := AllStudies()
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := verify.OpenVerdictDB(filepath.Join(t.TempDir(), "verdicts.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer vdb.Close()
	opts := equivcheck.Options{Cache: vdb}

	reordered, mutated := 0, 0
	for _, study := range studies {
		scripts, err := study.ParseScripts()
		if err != nil {
			t.Fatal(err)
		}
		cur := schema.New()
		for i, script := range scripts {
			name := study.Key + "/" + study.Scripts[i].Name
			before := cur
			plan, err := migrate.Structural(cur, script)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cur = plan.After

			if swapped, ok := swapCommuting(script); ok {
				cold, err := migrate.VerifyEquivalent(before, name, script, name+" (reordered)", swapped, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if cold.Verdict != equivcheck.Equivalent {
					t.Fatalf("%s: commuting reorder must be equivalent, got %s\n%s",
						name, cold.Verdict, cold.Format())
				}
				warm, err := migrate.VerifyEquivalent(before, name, script, name+" (reordered)", swapped, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if warm.Format() != cold.Format() {
					t.Fatalf("%s: warm replay must be byte-identical\ncold:\n%s\nwarm:\n%s",
						name, cold.Format(), warm.Format())
				}
				reordered++
			}

			if mutant, ok := mutateInit(before, script); ok {
				rep, err := migrate.VerifyEquivalent(before, name, script, name+" (mutated)", mutant, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rep.Verdict != equivcheck.NotEquivalent {
					t.Fatalf("%s: mutated initialiser must yield a counterexample, got %s\n%s",
						name, rep.Verdict, rep.Format())
				}
				if rep.Counterexample == nil {
					t.Fatalf("%s: missing concrete counterexample", name)
				}
				mutated++
			}
		}
	}
	// The corpus must actually exercise both paths, or the test is
	// vacuous; these counts only grow as studies are added.
	if reordered < 5 {
		t.Fatalf("only %d scripts had commuting pairs; corpus coverage regressed", reordered)
	}
	if mutated < 3 {
		t.Fatalf("only %d scripts had mutable initialisers; corpus coverage regressed", mutated)
	}
}

// BenchmarkCorpusEquivalence measures cold equivalence-proof time across
// the corpus's commuting-reorder checks as the universe bound grows — the
// EXPERIMENTS.md proof-time-vs-bound table comes from this benchmark. Each
// iteration runs every check cold (fresh caches): the quantity of interest
// is proving time, not cache lookups. ReportMetric exposes the universes
// replayed per iteration, the scale driver behind the curve.
func BenchmarkCorpusEquivalence(b *testing.B) {
	studies, err := AllStudies()
	if err != nil {
		b.Fatal(err)
	}
	type check struct {
		name    string
		before  *schema.Schema
		script  *ast.MigrationScript
		reorder *ast.MigrationScript
	}
	var checks []check
	for _, study := range studies {
		scripts, err := study.ParseScripts()
		if err != nil {
			b.Fatal(err)
		}
		cur := schema.New()
		for i, script := range scripts {
			before := cur
			plan, err := migrate.Structural(cur, script)
			if err != nil {
				b.Fatal(err)
			}
			cur = plan.After
			if swapped, ok := swapCommuting(script); ok {
				checks = append(checks, check{study.Key + "/" + study.Scripts[i].Name, before, script, swapped})
			}
		}
	}
	for _, bound := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			universes := 0
			for i := 0; i < b.N; i++ {
				universes = 0
				for _, c := range checks {
					rep, err := migrate.VerifyEquivalent(c.before, c.name, c.script,
						c.name+" (reordered)", c.reorder,
						equivcheck.Options{Bound: bound, MaxUniverses: 2_000_000})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Verdict != equivcheck.Equivalent {
						b.Fatalf("%s: %s", c.name, rep.Format())
					}
					universes += rep.Universes
				}
			}
			b.ReportMetric(float64(len(checks)), "proofs/op")
			b.ReportMetric(float64(universes), "universes/op")
		})
	}
}
