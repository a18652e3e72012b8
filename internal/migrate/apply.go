package migrate

import (
	"fmt"

	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/store"
)

// Apply runs a named migration exactly once, durably, against conn's
// database and live schema. It is the crash-safe sibling of
// VerifyAndExecute: the journal entry is written before the first command
// executes and advanced after each command, and every journal write flows
// through the store's durability layer after the command's own mutations.
// A process killed mid-script therefore recovers to a consistent prefix —
// the journal's Applied count never exceeds what the data reflects — and
// the next Apply of the same script verifies it again and resumes at the
// first unapplied command.
//
// Apply owns the moment the live schema changes: it Publishes the
// post-migration schema (flipping conn and rewriting `$spec`) once the
// journal marks the script finished. With opts.Online it publishes
// earlier, as a fence right after the journal entry opens: every read
// during the drain — local or follower — is then judged against the spec
// the data is converging to, and writes land on the post-migration shape
// from the first batch on. Each backfill opens a dual-read window on conn
// for its field, and a crash resumes mid-command at entry.Watermark rather
// than re-sweeping the collection.
//
// When the script was already fully applied (applied=false), its schema
// effects are recomputed structurally and conn flips to them, so
// sequential replay of a migration history over a recovered database
// converges to the same schema.
func Apply(conn *orm.Conn, name, src string, opts Options) (applied bool, err error) {
	db := conn.DB
	before := conn.Schema()
	journal := NewJournal(db)
	journal.Clock = opts.Clock

	switch journal.Check(name, src) {
	case StatusConflict:
		return false, &ErrJournalConflict{Name: name}
	case StatusApplied:
		// The script already ran. Two legitimate callers land here: a
		// sequential history replay whose schema predates the script (the
		// effects re-apply structurally), and a workspace whose schema was
		// restored already containing them (re-application fails its
		// structural checks — model/field exists — and the schema is
		// correct as-is). Commands that re-apply cleanly in the second
		// case (policy updates) are idempotent, so both paths converge.
		after, err := replaySchema(before, src, opts)
		if err != nil {
			return false, nil
		}
		if specBehind(journal, name, before) {
			return false, Publish(conn, after)
		}
		conn.SetSchema(after)
		return false, nil
	}

	script, err := parser.ParseMigration(src)
	if err != nil {
		return false, err
	}
	plan, err := Verify(before, script, opts)
	if err != nil {
		return false, err
	}
	id, err := journal.Begin(name, src, len(script.Commands))
	if err != nil {
		return false, err
	}
	entry, ok := journal.Lookup(name)
	if !ok {
		return false, fmt.Errorf("migrate: journal entry for %q vanished", name)
	}
	if entry.Applied > len(script.Commands) {
		return false, fmt.Errorf("migrate: journal claims %d applied commands, script has %d", entry.Applied, len(script.Commands))
	}
	if opts.Online {
		// The `$spec` fence: its record precedes the first backfill record
		// in the log, so the window is well-defined at every LSN.
		if err := Publish(conn, plan.After); err != nil {
			return false, err
		}
	}
	// The entry's AppliedAt (not the current clock) anchors now(): Begin
	// preserves it across a crash, so a resumed run evaluates now() in the
	// remaining commands to the same instant the original run used and the
	// recovered state converges byte-identically.
	err = ExecuteFromAt(plan, db, conn, *entry, opts, func(idx int) error {
		return journal.Progress(id, idx+1)
	}, func(watermark store.ID) error {
		return journal.ProgressBackfill(id, watermark)
	})
	if err != nil {
		return false, err
	}
	if err := journal.Finish(id, len(script.Commands)); err != nil {
		return false, err
	}
	// The finish mark, like every mutation above, is durable before Apply
	// acknowledges; a lost-durability log fails the migration here rather
	// than claiming success.
	if err := db.DurabilityErr(); err != nil {
		return false, err
	}
	return true, Publish(conn, plan.After)
}

// specBehind reports whether `$spec` lags the journal by exactly the
// script name: it is the newest journal entry and the stored spec is the
// one the script started from (or none). A crash between Apply's finish
// mark and its spec write leaves that state, and the replay finishes the
// commit. Any other replay leaves `$spec` alone: rewriting it with an
// intermediate spec would log a record on every replayed step.
func specBehind(j *Journal, name string, before *schema.Schema) bool {
	entries := j.Entries()
	if len(entries) == 0 || entries[len(entries)-1].Name != name {
		return false
	}
	stored := StoredSpec(j.db)
	return stored == "" || stored == specfmt.Format(before)
}

// replaySchema recomputes the schema effects of an already-applied script
// without re-proving or re-executing it.
func replaySchema(before *schema.Schema, src string, opts Options) (*schema.Schema, error) {
	script, err := parser.ParseMigration(src)
	if err != nil {
		return nil, err
	}
	opts.SkipVerification = true
	plan, err := Verify(before, script, opts)
	if err != nil {
		return nil, err
	}
	return plan.After, nil
}
