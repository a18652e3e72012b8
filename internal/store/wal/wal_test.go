package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scooter/internal/obs"
	"scooter/internal/store"
)

// snapshotBytes captures the store as its canonical snapshot encoding; two
// stores with equal bytes hold identical data.
func snapshotBytes(t *testing.T, db *store.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

func mustClose(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestFreshOpenReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l.Replayed() != 0 {
		t.Fatalf("fresh dir replayed %d records", l.Replayed())
	}
	if db.Collection("users").Len() != 0 {
		t.Fatal("fresh db not empty")
	}
	mustClose(t, l)
}

func TestReopenRecoversAllOps(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	users := db.Collection("users")
	users.EnsureIndex("name")
	id1 := users.Insert(store.Doc{"name": "alice", "age": int64(30), "tags": []store.Value{"a", "b"}})
	id2 := users.Insert(store.Doc{"name": "bob", "opt": store.Some(int64(7))})
	if err := users.Update(id1, store.Doc{"age": int64(31), "none": store.None()}); err != nil {
		t.Fatalf("update: %v", err)
	}
	users.RemoveField("tags")
	if !users.Delete(id2) {
		t.Fatal("delete failed")
	}
	db.Collection("scratch").Insert(store.Doc{"x": int64(1)})
	db.DropCollection("scratch")
	want := snapshotBytes(t, db)
	mustClose(t, l)

	l2, db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if l2.Replayed() == 0 {
		t.Fatal("reopen replayed nothing")
	}
	if got := snapshotBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	// Recovered id allocator must not reuse ids.
	id3 := db2.Collection("users").Insert(store.Doc{"name": "carol"})
	if id3 <= id1 {
		t.Fatalf("id %v reused after recovery (last was %v)", id3, id1)
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Collection("docs")
			for i := 0; i < per; i++ {
				c.Insert(store.Doc{"writer": int64(w), "seq": int64(i)})
			}
		}(w)
	}
	wg.Wait()
	if err := db.DurabilityErr(); err != nil {
		t.Fatalf("durability error: %v", err)
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)

	l2, db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if n := db2.Collection("docs").Len(); n != writers*per {
		t.Fatalf("recovered %d docs, want %d", n, writers*per)
	}
	if got := snapshotBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-close state")
	}
}

func TestRelaxedSyncModes(t *testing.T) {
	for _, opts := range []Options{
		{SyncEvery: 50},
		{SyncEvery: -1},
	} {
		dir := t.TempDir()
		l, db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c := db.Collection("docs")
		for i := 0; i < 120; i++ {
			c.Insert(store.Doc{"i": int64(i)})
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		mustClose(t, l)
		_, db2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if n := db2.Collection("docs").Len(); n != 120 {
			t.Fatalf("SyncEvery=%d: recovered %d docs, want 120", opts.SyncEvery, n)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c := db.Collection("docs")
	for i := 0; i < 100; i++ {
		c.Insert(store.Doc{"payload": strings.Repeat("x", 40), "i": int64(i)})
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)

	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	l2, db2, err := Open(dir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if got := snapshotBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after multi-segment replay")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c := db.Collection("docs")
	for i := 0; i < 50; i++ {
		c.Insert(store.Doc{"i": int64(i)})
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// More writes after the compaction land in the new segment.
	for i := 50; i < 60; i++ {
		c.Insert(store.Doc{"i": int64(i)})
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)

	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("expected 1 snapshot, got %d", len(snaps))
	}
	if len(segs) != 1 {
		t.Fatalf("expected old segments pruned, got %d segments", len(segs))
	}
	l2, db2, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	// Only the post-compaction tail replays: the checkpoint plus the ten
	// inserts after the snapshot.
	if l2.Replayed() > 11 {
		t.Fatalf("replayed %d records after compaction, want <= 11", l2.Replayed())
	}
	if got := snapshotBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after compaction")
	}
}

func TestCompactionConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := db.Collection("docs")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Insert(store.Doc{"i": int64(i)})
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := l.Compact(); err != nil {
			t.Errorf("compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	want := snapshotBytes(t, db)
	mustClose(t, l)

	l2, db2, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if got := snapshotBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after concurrent compaction")
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: 2048})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c := db.Collection("docs")
	for i := 0; i < 200; i++ {
		c.Insert(store.Doc{"payload": strings.Repeat("y", 30), "i": int64(i)})
	}
	// Wait for the background compaction to finish (Close joins it).
	mustClose(t, l)
	_, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("auto-compaction never produced a snapshot")
	}
	l2, db2, err := Open(dir, Options{CompactAfterBytes: 2048})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if n := db2.Collection("docs").Len(); n != 200 {
		t.Fatalf("recovered %d docs, want 200", n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Collection("docs").Insert(store.Doc{"i": int64(1)})
	mustClose(t, l)
	db.Collection("docs").Insert(store.Doc{"i": int64(2)})
	if err := db.DurabilityErr(); err != ErrClosed {
		t.Fatalf("write after close: err = %v, want ErrClosed", err)
	}
}

func TestStaleSnapshotAndTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Collection("docs").Insert(store.Doc{"i": int64(1)})
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	db.Collection("docs").Insert(store.Doc{"i": int64(2)})
	mustClose(t, l)
	// Simulate a crash mid-snapshot-write on the next compaction.
	if err := os.WriteFile(filepath.Join(dir, "snap-00000099.bin.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, db2, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, l2)
	if n := db2.Collection("docs").Len(); n != 2 {
		t.Fatalf("recovered %d docs, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-00000099.bin.tmp")); !os.IsNotExist(err) {
		t.Fatal("tmp file survived recovery")
	}
}

// TestLiveScanKeepsSnapshotTemp is the regression for a compaction racing
// the replication server: every directory scan of a live log — a tail's
// backlog poll, its prune check, a new tail or bootstrap, a compaction's
// prune — must leave an in-flight snapshot temp file alone, or the rename
// that publishes the snapshot fails.
func TestLiveScanKeepsSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	db.Collection("docs").Insert(store.Doc{"i": int64(1)})
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	tmp := filepath.Join(dir, "snap-00000099.bin.tmp")
	if err := os.WriteFile(tmp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, tail, err := l.BootstrapTail()
	if err != nil {
		t.Fatalf("bootstrap tail: %v", err)
	}
	defer tail.Close()
	tail.PendingBytes()
	tail.prunedAway()
	if _, err := l.TailFrom(l.LastLSN()); err != nil {
		t.Fatalf("tail from: %v", err)
	}
	db.Collection("docs").Insert(store.Doc{"i": int64(2)})
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("a live scan removed an in-flight snapshot temp file: %v", err)
	}
}

// TestBatchRecordCapSplitsBulkDrains pins the flush-unit bound: a bulk
// enqueue (the shape an online backfill batch produces) larger than
// MaxBatchRecords must be split into capped chunks — the overflow counter
// ticks — and recovery must still see every record.
func TestBatchRecordCapSplitsBulkDrains(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	wm := obs.NewWALMetrics(reg)
	l, db, err := Open(dir, Options{MaxBatchRecords: 4, Metrics: wm})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	users := db.Collection("users")

	// Bursts from concurrent writers pile records onto the queue faster
	// than the drain loop (fsyncing each pass) clears it; retry bounded
	// rounds until one drain provably exceeded the cap.
	const writers, perWriter = 4, 32
	total := 0
	for round := 0; round < 50 && wm.BatchOverflows.Value() == 0; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					users.Insert(store.Doc{"round": int64(w), "n": int64(i)})
				}
			}(w)
		}
		wg.Wait()
		total += writers * perWriter
	}
	if wm.BatchOverflows.Value() == 0 {
		t.Fatal("no drain ever exceeded MaxBatchRecords; cap untested")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)

	l2, db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if db2.Collection("users").Len() != total {
		t.Fatalf("recovered %d of %d records", db2.Collection("users").Len(), total)
	}
	if !bytes.Equal(snapshotBytes(t, db2), want) {
		t.Fatal("recovered snapshot differs after chunked flushes")
	}
	mustClose(t, l2)
}
