package migrate

import (
	"time"

	"scooter/internal/ast"
	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Online execution splits the one command class that touches every
// document — AddField populate — into bounded batches, each durable on its
// own and checkpointed with a journal watermark. Everything else about
// execution (schema-so-far advancement, command ordering, idempotent
// resume) is the stop-the-world loop in exec.go, ExecuteFromAt.
//
// Convergence argument (the acceptance bar is byte-identical equality with
// the stop-the-world result): the new field's value for every document is
// init(document's fields at window start), computed exactly once.
//   - The sweep writes it via UpdateIfAbsent, which is a no-op when the
//     dual-read window (or a resumed run's earlier sweep) already wrote it.
//   - The window's lazy writer persists the same computation before any
//     foreground write touches an unswept document, so foreground writes
//     always land on the post-migration shape.
//   - Documents inserted during the window carry the field from birth (the
//     schema flipped at window start), and monotonically increasing ids
//     mean the sweep reaches and skips them.
// So no interleaving of batches, crashes, and foreground traffic can make
// a document's new field differ from the stop-the-world value.

// backfillAddField populates an added field in bounded batches above the
// watermark after, keeping conn's dual-read window open for the field for
// the lifetime of the sweep (conn is nil when nothing reads concurrently).
func backfillAddField(cur *schema.Schema, db *store.DB, conn *orm.Conn, c *ast.AddField, nowUnix int64, after store.ID, opts Options, checkpoint func(watermark store.ID) error) error {
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	// The compute closure captures a snapshot of the schema-so-far: exec
	// advances cur for later commands while in-flight readers may still
	// hold the closure through the lazy shim.
	snap := cur.Snapshot()
	ev := eval.New(snap, db)
	ev.FixedNow = nowUnix
	compute := func(doc store.Doc) (store.Value, error) {
		v, err := ev.EvalInit(c.ModelName, doc, c.Init)
		if err != nil {
			return nil, err
		}
		return normaliseForField(c.Field.Type, v), nil
	}
	if conn != nil {
		conn.SetLazyMigration(c.ModelName, c.Field.Name, compute)
		defer conn.ClearLazyMigration(c.ModelName)
	}
	coll := db.Collection(c.ModelName)
	// Pacing is elapsed-based, settled once per batch: per-document sleeps
	// round up to the timer granularity (~1ms) and would cap the effective
	// rate near 1000 docs/s no matter what -rate asks for.
	paceStart := time.Now()
	swept := 0
	watermark := after
	for {
		// FindAfter binary-searches the watermark and bounds the read-lock
		// hold to one batch, so a foreground writer queued behind it waits
		// for at most one batch — unlike the stop-the-world path, which
		// reads the whole collection under one lock hold.
		docs := coll.FindAfter(watermark, batch)
		if len(docs) == 0 {
			return nil
		}
		populated, skipped := 0, 0
		for _, doc := range docs {
			watermark = doc.ID()
			if _, present := doc[c.Field.Name]; present {
				// Already carries the field: inserted post-flip, migrated
				// lazily by a foreground write, or swept before a crash.
				skipped++
				continue
			}
			v, err := compute(doc)
			if err != nil {
				return err
			}
			wrote, err := coll.UpdateIfAbsent(doc.ID(), c.Field.Name, v)
			if err != nil {
				return err
			}
			if wrote {
				populated++
			} else {
				skipped++
			}
		}
		swept += len(docs)
		if opts.Rate > 0 {
			target := time.Duration(swept) * time.Second / time.Duration(opts.Rate)
			if sleep := target - time.Since(paceStart); sleep > 0 {
				time.Sleep(sleep)
			}
		}
		// The watermark checkpoint is logged after the batch's own updates,
		// so a recovered watermark never claims unswept documents.
		if checkpoint != nil {
			if err := checkpoint(watermark); err != nil {
				return err
			}
		}
		remaining := coll.CountAfter(watermark)
		opts.Backfill.RecordBatch(populated, skipped, int64(watermark), remaining)
		if opts.OnBatch != nil {
			if err := opts.OnBatch(c.ModelName, c.Field.Name, watermark, remaining); err != nil {
				return err
			}
		}
	}
}
