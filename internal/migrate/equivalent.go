package migrate

import (
	"fmt"

	"scooter/internal/ast"
	"scooter/internal/equivcheck"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// equivNowUnix is the fixed clock both sides of an equivalence check
// execute under. `now` is an input of the migration, not something either
// side computes, so equivalence is judged at a common instant.
const equivNowUnix int64 = 1_000_000_000

// VerifyEquivalent proves two migration scripts over the same source
// schema observationally equivalent up to the configured bound
// (equivcheck.DefaultBound when unset). Each script is type-checked and
// planned (strictness verification is skipped — equivalence is a property
// between the scripts, independent of whether either passes the sidecar),
// then handed to the equivalence engine as an executable side.
func VerifyEquivalent(before *schema.Schema, aName string, a *ast.MigrationScript, bName string, b *ast.MigrationScript, opts equivcheck.Options) (*equivcheck.Report, error) {
	sideA, err := scriptSide(before, aName, a)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", aName, err)
	}
	sideB, err := scriptSide(before, bName, b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bName, err)
	}
	return equivcheck.Check(before, sideA, sideB, opts)
}

// VerifyOnlineEquivalent proves the online execution plan of a script
// (batched backfill with a live id watermark) equivalent to its
// stop-the-world execution, at plan level: both plans run over every
// bounded universe and must land in canonically equal stores. This
// complements the byte-equality tests of the online engine with a proof
// that covers all small stores, not just the fuzzed ones.
func VerifyOnlineEquivalent(before *schema.Schema, name string, script *ast.MigrationScript, batchSize int, opts equivcheck.Options) (*equivcheck.Report, error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	stw, err := scriptSide(before, name+" (stop-the-world)", script)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	online, err := scriptSide(before, name+" (online)", script)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	onlinePlan, err := Structural(before, script)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	online.Exec = func(db *store.DB) error {
		return ExecuteFromAt(onlinePlan, db, nil, JournalEntry{AppliedAt: equivNowUnix}, Options{Online: true, BatchSize: batchSize}, nil, nil)
	}
	return equivcheck.Check(before, stw, online, opts)
}

// scriptSide plans a script and packages it as an equivalence-check side.
func scriptSide(before *schema.Schema, name string, script *ast.MigrationScript) (equivcheck.Side, error) {
	plan, err := Structural(before, script)
	if err != nil {
		return equivcheck.Side{}, err
	}
	side := equivcheck.Side{
		Name:    name,
		After:   plan.After,
		Inits:   scriptInits(script),
		Mutated: mutatedModels(script),
		Exec: func(db *store.DB) error {
			return ExecuteFromAt(plan, db, nil, JournalEntry{AppliedAt: equivNowUnix}, Options{}, nil, nil)
		},
	}
	return side, nil
}

// scriptInits lists the script's AddField initialisers. Verify has
// type-checked them, so field references resolve for relevance analysis.
func scriptInits(script *ast.MigrationScript) []equivcheck.InitRef {
	var out []equivcheck.InitRef
	for _, cmd := range script.Commands {
		if af, ok := cmd.(*ast.AddField); ok {
			out = append(out, equivcheck.InitRef{Model: af.ModelName, Init: af.Init})
		}
	}
	return out
}

// mutatedModels names the models whose collections the script's execution
// can change. DeleteModel counts even when a later CreateModel restores
// the same shape: delete-then-recreate empties the collection, which is
// observable against a side that leaves it alone.
func mutatedModels(script *ast.MigrationScript) []string {
	seen := map[string]bool{}
	var out []string
	mark := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, cmd := range script.Commands {
		switch c := cmd.(type) {
		case *ast.AddField:
			mark(c.ModelName)
		case *ast.RemoveField:
			mark(c.ModelName)
		case *ast.DeleteModel:
			mark(c.ModelName)
		}
	}
	return out
}
