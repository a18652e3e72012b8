package migrate

import (
	"fmt"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// ExecuteFromAt applies a verified plan to the database. Verification has
// already proven every command safe, so execution is straightforward:
// structural commands adjust collections, AddField populates existing
// documents with the initialiser, and policy commands have no data effect.
// Execution never needs to roll back (paper §3.2): verification of the
// whole script happened before any data was touched.
//
// Execution resumes where the journal entry at left off. Commands before
// at.Applied only advance the schema-so-far (their data effects are
// already present — the crash-recovery resume path); onApplied, when set,
// runs after each executed command, and Apply uses it to journal durable
// per-command progress. Commands are idempotent against their own partial
// effects (re-populating a field recomputes the same values; collection
// create/drop and field removal are naturally idempotent), so resuming at
// the last journalled command is safe even if it half-ran before a crash.
// Every now() in an initialiser evaluates to at.AppliedAt for the whole
// run: Apply passes the entry's original timestamp, which survives a
// crash, so a resumed run re-populates now() fields byte-identically.
//
// With opts.Online an AddField populates in batches (see online.go): the
// command at at.Applied resumes its sweep above at.Watermark, checkpoint
// (when set) reports each batch's durable progress, and conn (when set)
// serves the field lazily to foreground operations until the sweep ends.
// Otherwise AddField is the stop-the-world populate, the reference the
// online sweep is tested against.
func ExecuteFromAt(plan *Plan, db *store.DB, conn *orm.Conn, at JournalEntry, opts Options, onApplied func(idx int) error, checkpoint func(watermark store.ID) error) error {
	cur := plan.Before.Clone()
	defs := equiv.New()
	for i, cmd := range plan.Script.Commands {
		if i >= at.Applied {
			var err error
			if af, ok := cmd.(*ast.AddField); ok && opts.Online {
				watermark := store.Nil
				if i == at.Applied {
					watermark = at.Watermark
				}
				err = backfillAddField(cur, db, conn, af, at.AppliedAt, watermark, opts, checkpoint)
			} else {
				err = executeCommand(cur, defs, db, cmd, at.AppliedAt)
			}
			if err != nil {
				return fmt.Errorf("executing command %d (%s): %w", i+1, cmd.Name(), err)
			}
			if onApplied != nil {
				if err := onApplied(i); err != nil {
					return fmt.Errorf("journalling command %d (%s): %w", i+1, cmd.Name(), err)
				}
			}
		}
		if err := applyCommand(cur, defs, cmd); err != nil {
			return fmt.Errorf("recording command %d (%s): %w", i+1, cmd.Name(), err)
		}
	}
	return nil
}

func executeCommand(cur *schema.Schema, defs *equiv.Defs, db *store.DB, cmd ast.Command, nowUnix int64) error {
	switch c := cmd.(type) {
	case *ast.CreateModel:
		db.Collection(c.Model.Name) // materialise the collection
		return nil
	case *ast.DeleteModel:
		db.DropCollection(c.ModelName)
		return nil
	case *ast.AddField:
		// Populate existing rows. The initialiser runs against the schema
		// in effect before this command. Find-then-Update rather than
		// UpdateAll: the initialiser may probe other collections, and
		// evaluating it while holding this collection's write lock can
		// deadlock against a concurrent multi-collection snapshot (WAL
		// compaction acquires every collection lock at its cut). Each
		// update is durable on its own, and recomputing the initialiser on
		// a resumed run yields the same values, so a crash mid-populate
		// recovers cleanly.
		ev := eval.New(cur, db)
		ev.FixedNow = nowUnix
		coll := db.Collection(c.ModelName)
		for _, doc := range coll.Find() {
			v, err := ev.EvalInit(c.ModelName, doc, c.Init)
			if err != nil {
				return err
			}
			fields := store.Doc{c.Field.Name: normaliseForField(c.Field.Type, v)}
			if err := coll.Update(doc.ID(), fields); err != nil {
				return err
			}
		}
		return nil
	case *ast.RemoveField:
		db.Collection(c.ModelName).RemoveField(c.FieldName)
		return nil
	default:
		// Policy and principal commands do not touch data.
		return nil
	}
}

// normaliseForField adapts an initialiser result to the declared field
// type: a nil set becomes the empty set, and Option fields wrap plain
// values produced by unify-friendly initialisers.
func normaliseForField(t ast.Type, v store.Value) store.Value {
	switch t.Kind {
	case ast.TSet:
		if v == nil {
			return []store.Value{}
		}
	case ast.TOption:
		if _, ok := v.(store.Optional); !ok {
			return store.Some(v)
		}
	}
	return v
}
