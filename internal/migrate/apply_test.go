package migrate

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scooter/internal/orm"
	"scooter/internal/store"
	"scooter/internal/store/wal"
)

// fixedClock makes journal timestamps — and therefore WAL bytes and
// snapshots — deterministic across runs.
func fixedClock() time.Time { return time.Unix(1700000000, 0) }

const applyScript = `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
User::AddField(karma : I64 {
  read: public,
  write: u -> User::Find({isAdmin:true})
}, u -> 1);
`

func applyOpts() Options {
	o := DefaultOptions()
	o.SkipVerification = true // resume/journal mechanics under test, not proofs
	o.Clock = fixedClock
	return o
}

func snapBytes(t *testing.T, db *store.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyJournalClock checks the injected clock reaches the journal
// entry: AppliedAt is exactly the fixed time, not time.Now.
func TestApplyJournalClock(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	seedChitter(t, db)

	if applied, err := Apply(orm.Open(s, db), "001_bio", applyScript, applyOpts()); err != nil || !applied {
		t.Fatalf("apply: applied=%v err=%v", applied, err)
	}
	entry, ok := NewJournal(db).Lookup("001_bio")
	if !ok {
		t.Fatal("no journal entry")
	}
	if entry.AppliedAt != fixedClock().Unix() {
		t.Fatalf("AppliedAt = %d, want %d", entry.AppliedAt, fixedClock().Unix())
	}
	if !entry.Done || entry.Applied != 2 {
		t.Fatalf("entry = %+v, want done with 2 applied", entry)
	}
}

// TestApplyResumesPartial interrupts a two-command script after its first
// command (as a crash between commands would), then re-Applies: the journal
// reports StatusPartial, execution resumes at command 2, and the final
// state matches an uninterrupted run byte for byte.
func TestApplyResumesPartial(t *testing.T) {
	s := loadSchema(t, chitterBase)
	opts := applyOpts()

	// Reference: uninterrupted apply.
	ref := store.Open()
	seedChitter(t, ref)
	refConn := orm.Open(s, ref)
	if _, err := Apply(refConn, "001_bio", applyScript, opts); err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, ref)

	// Interrupted: run Apply's own steps but abort after command 1.
	db := store.Open()
	seedChitter(t, db)
	journal := NewJournal(db)
	journal.Clock = opts.Clock
	script, err := parseScript(applyScript)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Verify(s, script, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := journal.Begin("001_bio", applyScript, len(script.Commands))
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("simulated crash")
	err = ExecuteFromAt(plan, db, nil, JournalEntry{AppliedAt: fixedClock().Unix()}, opts, func(idx int) error {
		if err := journal.Progress(id, idx+1); err != nil {
			return err
		}
		if idx == 0 {
			return crash
		}
		return nil
	}, nil)
	if !errors.Is(err, crash) {
		t.Fatalf("ExecuteFromAt err = %v, want simulated crash", err)
	}
	if got := journal.Check("001_bio", applyScript); got != StatusPartial {
		t.Fatalf("status after crash = %v, want partial", got)
	}

	conn := orm.Open(s, db)
	applied, err := Apply(conn, "001_bio", applyScript, opts)
	if err != nil || !applied {
		t.Fatalf("resume: applied=%v err=%v", applied, err)
	}
	if conn.Schema().Model("User").Field("karma") == nil || refConn.Schema().Model("User").Field("karma") == nil {
		t.Fatal("schema missing karma after resume")
	}
	if got := snapBytes(t, db); !bytes.Equal(got, want) {
		t.Fatalf("resumed state differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

// TestApplyResumeNowDeterministic is the regression for the now() clock
// bug: a migration whose AddField initialiser reads now, crashed after
// its first command and resumed by a process whose wall clock has moved
// on, must still converge byte-identically to an uninterrupted run. The
// journal entry's AppliedAt — written by Begin on the first attempt and
// preserved across the crash — anchors now(), not the resumer's clock.
func TestApplyResumeNowDeterministic(t *testing.T) {
	const script = `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
User::AddField(joined : DateTime {
  read: public,
  write: none
}, u -> now);
`
	s := loadSchema(t, chitterBase)
	opts := applyOpts()

	// Reference: uninterrupted apply under the original clock.
	ref := store.Open()
	seedChitter(t, ref)
	if _, err := Apply(orm.Open(s, ref), "001_join", script, opts); err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, ref)

	// Crashed run: journal begun under the original clock, the first
	// command executed, then a crash before the now()-populated command.
	db := store.Open()
	seedChitter(t, db)
	journal := NewJournal(db)
	journal.Clock = opts.Clock
	sc, err := parseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Verify(s, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := journal.Begin("001_join", script, len(sc.Commands))
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("simulated crash")
	err = ExecuteFromAt(plan, db, nil, JournalEntry{AppliedAt: fixedClock().Unix()}, opts, func(idx int) error {
		if err := journal.Progress(id, idx+1); err != nil {
			return err
		}
		return crash
	}, nil)
	if !errors.Is(err, crash) {
		t.Fatalf("ExecuteFromAt err = %v, want simulated crash", err)
	}

	// Resume in a "new process" whose wall clock moved a day ahead. Before
	// the fix, now() in the remaining command read this clock (or worse,
	// the real wall clock) and the resumed state diverged.
	resumed := opts
	resumed.Clock = func() time.Time { return fixedClock().Add(24 * time.Hour) }
	if applied, err := Apply(orm.Open(s, db), "001_join", script, resumed); err != nil || !applied {
		t.Fatalf("resume: applied=%v err=%v", applied, err)
	}

	if got := snapBytes(t, db); !bytes.Equal(got, want) {
		t.Fatalf("resumed state differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
	// The now()-populated field holds the original run's instant.
	for _, doc := range db.Collection("User").Find() {
		if v, _ := doc["joined"].(int64); v != fixedClock().Unix() {
			t.Fatalf("joined = %v, want %d", doc["joined"], fixedClock().Unix())
		}
	}
}

// TestApplyCrashMidScriptConverges is the end-to-end crash drill: a
// migration applied through the write-ahead log, with the log torn at
// every byte the apply phase wrote. Recovery must yield a consistent
// prefix (journal never claiming more than the data reflects), and
// re-running Apply must converge to the exact bytes of an uninterrupted
// run — including the $migrations journal.
func TestApplyCrashMidScriptConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow; run without -short")
	}
	s := loadSchema(t, chitterBase)
	opts := applyOpts()

	// Base: seeded users, durably logged, no migration yet.
	base := t.TempDir()
	l, db, err := wal.Open(base, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedChitter(t, db)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentName(1)
	baseLog, err := os.ReadFile(filepath.Join(base, seg))
	if err != nil {
		t.Fatal(err)
	}

	// Full: base + the whole migration. Its snapshot is the target state.
	full := t.TempDir()
	if err := os.CopyFS(full, os.DirFS(base)); err != nil {
		t.Fatal(err)
	}
	l, db, err = wal.Open(full, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := Apply(orm.Open(s, db), "001_bio", applyScript, opts); err != nil || !applied {
		t.Fatalf("full apply: applied=%v err=%v", applied, err)
	}
	want := snapBytes(t, db)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fullLog, err := os.ReadFile(filepath.Join(full, seg))
	if err != nil {
		t.Fatal(err)
	}
	if len(fullLog) <= len(baseLog) {
		t.Fatalf("apply phase wrote no log bytes (%d vs %d)", len(fullLog), len(baseLog))
	}

	// Tear the log at every byte the apply phase wrote, recover, re-apply.
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
		// Invariant: the recovered journal never claims commands the data
		// does not reflect. Command 1 adds bio to every user; if the
		// journal says it completed, every user must have a bio.
		if entry, ok := NewJournal(db).Lookup("001_bio"); ok && entry.Applied >= 1 {
			for _, doc := range db.Collection("User").Find() {
				if _, hasBio := doc["bio"]; !hasBio {
					t.Fatalf("off %d: journal claims %d applied but a user has no bio", off, entry.Applied)
				}
			}
		}
		if _, err := Apply(orm.Open(s, db), "001_bio", applyScript, opts); err != nil {
			t.Fatalf("off %d: re-apply: %v", off, err)
		}
		if got := snapBytes(t, db); !bytes.Equal(got, want) {
			t.Fatalf("off %d: state after crash+re-apply differs from uninterrupted run", off)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("off %d: close: %v", off, err)
		}
	}
}
