package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"scooter/internal/store"
)

// faultOp is one deterministic single-record mutation: one op = one WAL
// record, so recovery from any damage must land exactly on an op-count
// prefix.
type faultOp func(db *store.DB)

// faultWorkload builds n single-record ops: collection and index setup,
// then a mix of inserts, updates and deletes over the full value universe.
func faultWorkload(n int) []faultOp {
	ops := []faultOp{
		func(db *store.DB) { db.Collection("users") },
		func(db *store.DB) { db.Collection("posts") },
		func(db *store.DB) { db.Collection("users").EnsureIndex("name") },
	}
	var ids []store.ID
	for i := 0; len(ops) < n; i++ {
		switch {
		case i%7 == 3 && len(ids) > 2:
			id := ids[i%len(ids)]
			ops = append(ops, func(db *store.DB) {
				db.Collection("users").Update(id, store.Doc{"age": int64(i), "opt": store.Some(int64(i))})
			})
		case i%11 == 5 && len(ids) > 4:
			id := ids[0]
			ids = ids[1:]
			ops = append(ops, func(db *store.DB) { db.Collection("users").Delete(id) })
		default:
			// Insert ids are deterministic: the store allocates 2, 3, ...
			// in op order, and replay restores the same allocator state.
			ids = append(ids, store.ID(int64(len(ids)+2)))
			ops = append(ops, func(db *store.DB) {
				db.Collection("users").Insert(store.Doc{
					"name": fmt.Sprintf("u%d", i), "age": int64(20 + i%50),
					"tags": []store.Value{"a", int64(i)}, "extra": store.None(),
				})
			})
		}
	}
	return ops[:n]
}

// TestFaultInjectionSweep damages a log at every byte offset of every
// segment — both a torn write (truncation) and a bit flip — and checks that
// recovery always succeeds, never panics, and always yields the state
// after some committed prefix of the workload.
func TestFaultInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow; run without -short")
	}
	const nOps = 40
	ops := faultWorkload(nOps)

	// Small segments so the sweep crosses rotation boundaries and later
	// segment headers, not just record frames.
	walOpts := Options{SegmentMaxBytes: 1024, CompactAfterBytes: -1}
	pristine := t.TempDir()
	l, db, err := Open(pristine, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ops {
		f(db)
	}
	if err := db.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, l)

	prefixes := map[string]int{}
	for k := 0; k <= nOps; k++ {
		fresh := store.Open()
		for _, f := range ops[:k] {
			f(fresh)
		}
		prefixes[string(snapshotBytes(t, fresh))] = k
	}

	entries, err := os.ReadDir(pristine)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("workload produced %d segments; want >= 2 so faults hit rotation boundaries", len(segs))
	}

	trial := filepath.Join(t.TempDir(), "trial")
	trials, replayed := 0, 0
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(pristine, seg))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off++ {
			for _, truncate := range []bool{true, false} {
				damaged := data[:off:off]
				if !truncate {
					damaged = append([]byte(nil), data...)
					damaged[off] ^= 0xFF
				}
				if err := os.RemoveAll(trial); err != nil {
					t.Fatal(err)
				}
				if err := os.CopyFS(trial, os.DirFS(pristine)); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(trial, seg), damaged, 0o644); err != nil {
					t.Fatal(err)
				}
				l, db, err := Open(trial, walOpts)
				if err != nil {
					t.Fatalf("%s+%d truncate=%v: recovery failed: %v", seg, off, truncate, err)
				}
				snap := snapshotBytes(t, db)
				if _, ok := prefixes[string(snap)]; !ok {
					t.Fatalf("%s+%d truncate=%v: recovered state is not a committed prefix", seg, off, truncate)
				}
				replayed += l.Replayed()
				mustClose(t, l)
				trials++
			}
		}
	}
	t.Logf("%d ops across %d segments: %d fault trials, %d replayed records", nOps, len(segs), trials, replayed)
	if replayed == 0 {
		t.Fatal("sweep never replayed a record; workload too small to be meaningful")
	}
}

// TestRecoveryAfterTornWriteAppends checks the log stays usable after a
// torn-tail truncation: recover, append more records, reopen, and see both
// the surviving prefix and the new writes.
func TestRecoveryAfterTornWriteAppends(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	users := db.Collection("users")
	for i := 0; i < 5; i++ {
		users.Insert(store.Doc{"n": int64(i)})
	}
	mustClose(t, l)

	// Tear the last record: chop 3 bytes off the single segment.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l, db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	users = db.Collection("users")
	if got := users.Len(); got != 4 {
		t.Fatalf("after torn write: %d users, want 4", got)
	}
	users.Insert(store.Doc{"n": int64(99)})
	if err := db.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)

	l, db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l)
	if !bytes.Equal(want, snapshotBytes(t, db)) {
		t.Fatal("state after append-past-torn-tail did not survive reopen")
	}
}
