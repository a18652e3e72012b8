package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/store"
	"scooter/internal/store/wal"
)

// seedMany seeds n chitter users so an online backfill spans several
// batches. Fields are deterministic functions of the index, so snapshots
// of independent runs are comparable byte for byte.
func seedMany(t *testing.T, db *store.DB, n int) {
	t.Helper()
	users := db.Collection("User")
	for i := 0; i < n; i++ {
		users.Insert(store.Doc{
			"name": fmt.Sprintf("u%03d", i), "email": fmt.Sprintf("u%03d@x", i),
			"pronouns": "they/them", "isAdmin": i == 0, "followers": []store.Value{},
		})
	}
}

// TestOnlineApplyMatchesStopTheWorld runs the same migration online
// (batched, watermarked) and stop-the-world over identical databases: the
// final states — documents, `$migrations` journal included — must be byte
// identical, and the online run must checkpoint monotonically increasing
// watermarks that reset at each command boundary.
func TestOnlineApplyMatchesStopTheWorld(t *testing.T) {
	s := loadSchema(t, chitterBase)

	ref := store.Open()
	seedMany(t, ref, 10)
	if applied, err := Apply(orm.Open(s, ref), "001_bio", applyScript, applyOpts()); err != nil || !applied {
		t.Fatalf("stop-the-world apply: applied=%v err=%v", applied, err)
	}
	want := snapBytes(t, ref)

	db := store.Open()
	seedMany(t, db, 10)
	users := db.Collection("User")
	seeded := users.Find()
	last := seeded[len(seeded)-1].ID()
	conn := orm.Open(s, db)
	anon := conn.AsPrinc(eval.StaticPrincipal("Unauthenticated"))
	opts := applyOpts()
	opts.Online = true
	opts.BatchSize = 3
	var windows []string
	var watermarks []store.ID
	lastRemaining := -1
	opts.OnBatch = func(model, field string, watermark store.ID, remaining int) error {
		watermarks = append(watermarks, watermark)
		lastRemaining = remaining
		if remaining == 0 {
			return nil
		}
		// The last seeded document is unswept until the final batch: the
		// stored copy lacks the field, and the connection's open window
		// derives it from the document's old shape.
		if doc, _ := users.Get(last); doc[field] != nil {
			return fmt.Errorf("doc %v swept before the final batch", last)
		}
		obj, err := anon.FindByID(model, last)
		if err != nil || obj == nil {
			return fmt.Errorf("read in the window: obj=%v err=%v", obj, err)
		}
		v, ok := obj.Get(field)
		if !ok {
			return fmt.Errorf("no window open for %s.%s at watermark %v", model, field, watermark)
		}
		if field == "bio" && v != "I'm u009" {
			t.Errorf("lazy value for bio = %v, want %q", v, "I'm u009")
		}
		if w := model + "." + field; len(windows) == 0 || windows[len(windows)-1] != w {
			windows = append(windows, w)
		}
		return nil
	}
	applied, err := Apply(conn, "001_bio", applyScript, opts)
	if err != nil || !applied {
		t.Fatalf("online apply: applied=%v err=%v", applied, err)
	}
	if conn.Schema().Model("User").Field("karma") == nil {
		t.Fatal("schema missing karma after online apply")
	}
	if got := snapBytes(t, db); !bytes.Equal(got, want) {
		t.Fatalf("online result differs from stop-the-world:\n%s\n---\n%s", got, want)
	}

	// Both AddFields opened a window, in order, and none outlives Apply:
	// a document lacking both fields reads without them.
	if wantWindows := []string{"User.bio", "User.karma"}; fmt.Sprint(windows) != fmt.Sprint(wantWindows) {
		t.Fatalf("windows: %v, want %v", windows, wantWindows)
	}
	late := users.Insert(store.Doc{
		"name": "late", "email": "late@x", "pronouns": "they/them", "isAdmin": false, "followers": []store.Value{},
	})
	obj, err := anon.FindByID("User", late)
	if err != nil || obj == nil {
		t.Fatalf("read after apply: obj=%v err=%v", obj, err)
	}
	for _, field := range []string{"bio", "karma"} {
		if v, ok := obj.Get(field); ok {
			t.Fatalf("lazy window for %s still open after apply: %#v", field, v)
		}
	}
	// 10 docs / batch 3 = 4 batches per command, watermarks increasing
	// within each command and resetting between commands.
	if len(watermarks) != 8 {
		t.Fatalf("batch checkpoints: %v", watermarks)
	}
	for i := 1; i < 4; i++ {
		if watermarks[i] <= watermarks[i-1] || watermarks[i+4] <= watermarks[i+3] {
			t.Fatalf("watermarks not increasing per command: %v", watermarks)
		}
	}
	if lastRemaining != 0 {
		t.Fatalf("remaining after final batch = %d", lastRemaining)
	}
	entry, ok := NewJournal(db).Lookup("001_bio")
	if !ok || !entry.Done || entry.Watermark != 0 {
		t.Fatalf("journal entry after online apply: %+v", entry)
	}
}

// TestOnlineApplyCrashMidBackfillConverges is the online sibling of
// TestApplyCrashMidScriptConverges: the log is torn at every byte the
// online apply phase wrote — which includes every batch boundary — and
// after recovery the journal's backfill watermark must never claim a
// document the data does not reflect, and a resumed online Apply must
// converge to the exact bytes of an uninterrupted run.
func TestOnlineApplyCrashMidBackfillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow; run without -short")
	}
	s := loadSchema(t, chitterBase)
	opts := applyOpts()
	opts.Online = true
	opts.BatchSize = 3

	// Base: seeded users, durably logged, no migration yet.
	base := t.TempDir()
	l, db, err := wal.Open(base, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedMany(t, db, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentName(1)
	baseLog, err := os.ReadFile(filepath.Join(base, seg))
	if err != nil {
		t.Fatal(err)
	}

	// Full: base + the whole online migration; its snapshot is the target.
	full := t.TempDir()
	if err := os.CopyFS(full, os.DirFS(base)); err != nil {
		t.Fatal(err)
	}
	l, db, err = wal.Open(full, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := Apply(orm.Open(s, db), "001_bio", applyScript, opts); err != nil || !applied {
		t.Fatalf("full online apply: applied=%v err=%v", applied, err)
	}
	want := snapBytes(t, db)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fullLog, err := os.ReadFile(filepath.Join(full, seg))
	if err != nil {
		t.Fatal(err)
	}

	for off := len(baseLog); off <= len(fullLog); off++ {
		trial := t.TempDir()
		if err := os.CopyFS(trial, os.DirFS(full)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trial, seg), fullLog[:off:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l, db, err := wal.Open(trial, wal.Options{})
		if err != nil {
			t.Fatalf("off %d: recovery: %v", off, err)
		}
		// Invariant: the recovered watermark never claims unswept documents.
		// The command at index entry.Applied is the one mid-backfill; for
		// this script command 0 populates bio, command 1 karma.
		if entry, ok := NewJournal(db).Lookup("001_bio"); ok && entry.Watermark > 0 {
			field := "bio"
			if entry.Applied >= 1 {
				field = "karma"
			}
			for _, doc := range db.Collection("User").Find() {
				if doc.ID() <= entry.Watermark {
					if _, has := doc[field]; !has {
						t.Fatalf("off %d: watermark %d claims doc %d but %s is missing",
							off, entry.Watermark, doc.ID(), field)
					}
				}
			}
		}
		if _, err := Apply(orm.Open(s, db), "001_bio", applyScript, opts); err != nil {
			t.Fatalf("off %d: online re-apply: %v", off, err)
		}
		if got := snapBytes(t, db); !bytes.Equal(got, want) {
			t.Fatalf("off %d: state after crash+online re-apply differs from uninterrupted run", off)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("off %d: close: %v", off, err)
		}
	}
}

// TestJournalBeginRevalidates is the regression for resume trusting stale
// journal metadata: Begin on a crashed entry must revalidate the stored
// command count (and applied watermark) against the re-parsed script and
// refuse with a typed error when they contradict, instead of silently
// resuming at the wrong command.
func TestJournalBeginRevalidates(t *testing.T) {
	db := store.Open()
	j := NewJournal(db)
	j.Clock = fixedClock
	id, err := j.Begin("001_bio", applyScript, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed entry with matching metadata resumes (same id back).
	got, err := j.Begin("001_bio", applyScript, 2)
	if err != nil || got != id {
		t.Fatalf("clean resume: id=%v err=%v", got, err)
	}

	// Stored command count contradicting the script: typed refusal.
	coll := db.Collection(JournalCollection)
	if err := coll.Update(id, store.Doc{"commands": int64(5)}); err != nil {
		t.Fatal(err)
	}
	_, err = j.Begin("001_bio", applyScript, 2)
	var corrupt *ErrJournalCorrupt
	if !errors.As(err, &corrupt) || corrupt.Stored != 5 || corrupt.Parsed != 2 {
		t.Fatalf("command-count mismatch: %v", err)
	}

	// Applied beyond the script length: also a typed refusal.
	if err := coll.Update(id, store.Doc{"commands": int64(2), "applied": int64(3)}); err != nil {
		t.Fatal(err)
	}
	_, err = j.Begin("001_bio", applyScript, 2)
	if !errors.As(err, &corrupt) {
		t.Fatalf("applied-out-of-range: %v", err)
	}

	// Apply surfaces the refusal instead of executing anything.
	s := loadSchema(t, chitterBase)
	seedChitter(t, db)
	if _, err := Apply(orm.Open(s, db), "001_bio", applyScript, applyOpts()); !errors.As(err, &corrupt) {
		t.Fatalf("Apply over corrupt journal: %v", err)
	}
}
