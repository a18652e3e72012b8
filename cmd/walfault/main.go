// Command walfault is the crash-recovery fault-injection driver. It writes
// a deterministic workload through the write-ahead log, then simulates a
// torn write at every byte offset of every segment (truncation — the tail
// of the file never reached disk) and a corrupted byte at every offset
// (bit flip), recovering from each damaged copy and checking that the
// result is exactly the state after some prefix of the committed history —
// never a partially applied record, never a panic.
//
//	walfault             # run the full sweep in a temp directory
//	walfault -dir DIR    # keep the working files under DIR
//	walfault -ops N      # workload size (default 40)
//	walfault -trials N   # bound the sweep to N trials (0 = exhaustive)
//	walfault -seed S     # which N trials the bound picks (default 1)
//	walfault -online     # sweep crashes through an online migration instead
//
// With -trials the sweep runs a deterministic random subset: the full
// candidate list is shuffled by -seed and the first N are run, so a bounded
// CI job still covers every segment region over time while any failure
// reproduces exactly from the same -seed/-trials/-ops triple.
//
// Output ends with "all recovered" and the total of replayed records; the
// CI crash-recovery smoke job greps for both.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scooter/internal/store"
	"scooter/internal/store/wal"
)

// op is one deterministic single-record mutation. Each op maps to exactly
// one WAL record, so every truncation point lands between ops and the
// recovered state must equal an op-count prefix.
type op func(db *store.DB)

// workload builds n single-record ops: collection/index setup, then a mix
// of inserts, updates, and deletes over the full value universe.
func workload(n int) []op {
	ops := []op{
		func(db *store.DB) { db.Collection("users") },
		func(db *store.DB) { db.Collection("posts") },
		func(db *store.DB) { db.Collection("users").EnsureIndex("name") },
	}
	var ids []store.ID
	for i := 0; len(ops) < n; i++ {
		i := i
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

// snapshotAfter returns the canonical snapshot of a fresh store after the
// first k ops.
func snapshotAfter(ops []op, k int) string {
	db := store.Open()
	for _, f := range ops[:k] {
		f(db)
	}
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		fatal("prefix snapshot: %v", err)
	}
	return buf.String()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "walfault: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	dir := flag.String("dir", "", "working directory (default: a temp dir)")
	nOps := flag.Int("ops", 40, "workload size in single-record operations")
	maxTrials := flag.Int("trials", 0, "run at most this many fault trials, sampled deterministically (0 = every offset)")
	seed := flag.Int64("seed", 1, "seed selecting which trials a bounded run picks")
	online := flag.Bool("online", false, "sweep crashes through an online batched migration with foreground traffic")
	flag.Parse()

	work := *dir
	if work == "" {
		var err error
		work, err = os.MkdirTemp("", "walfault")
		if err != nil {
			fatal("%v", err)
		}
		defer os.RemoveAll(work)
	}

	if *online {
		runOnline(work, *maxTrials, *seed)
		return
	}

	ops := workload(*nOps)

	// Write the pristine log. Small segments force rotation so faults also
	// land on segment boundaries and headers of later segments.
	pristine := filepath.Join(work, "pristine")
	l, db, err := wal.Open(pristine, wal.Options{SegmentMaxBytes: 1024, CompactAfterBytes: -1})
	if err != nil {
		fatal("open pristine: %v", err)
	}
	for _, f := range ops {
		f(db)
	}
	if err := db.DurabilityErr(); err != nil {
		fatal("workload: %v", err)
	}
	if err := l.Close(); err != nil {
		fatal("close pristine: %v", err)
	}

	// Every reachable recovery state is the state after some op prefix.
	prefixes := map[string]int{}
	for k := 0; k <= len(ops); k++ {
		prefixes[snapshotAfter(ops, k)] = k
	}

	segs := segmentFiles(pristine)
	fmt.Printf("workload: %d ops across %d segments\n", len(ops), len(segs))

	// Enumerate every candidate fault first, so a bounded run can sample
	// from the same universe the exhaustive sweep covers.
	type trial struct {
		seg      string
		data     []byte
		off      int
		truncate bool
	}
	var candidates []trial
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(pristine, seg))
		if err != nil {
			fatal("%v", err)
		}
		for off := 0; off < len(data); off++ {
			candidates = append(candidates,
				trial{seg, data, off, true},
				trial{seg, data, off, false})
		}
	}
	if *maxTrials > 0 && *maxTrials < len(candidates) {
		rng := rand.New(rand.NewSource(*seed))
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:*maxTrials]
		fmt.Printf("bounded run: %d of the possible trials (seed %d)\n", len(candidates), *seed)
	}

	replayedTotal := 0
	for _, c := range candidates {
		replayedTotal += runTrial(work, pristine, c.seg, c.data, c.off, c.truncate, prefixes)
	}
	fmt.Printf("fault trials: %d (torn writes and bit flips)\n", len(candidates))
	fmt.Printf("replayed records: %d\n", replayedTotal)
	fmt.Println("all recovered")
}

// runTrial damages one copy of the log (truncate at off, or flip the byte
// at off), recovers it, and checks the result against the prefix set. It
// returns the number of records recovery replayed.
func runTrial(work, pristine, seg string, data []byte, off int, truncate bool, prefixes map[string]int) int {
	kind := "flip"
	if truncate {
		kind = "torn"
	}
	trial := filepath.Join(work, "trial")
	if err := os.RemoveAll(trial); err != nil {
		fatal("%v", err)
	}
	if err := os.CopyFS(trial, os.DirFS(pristine)); err != nil {
		fatal("clone: %v", err)
	}
	damaged := data
	if truncate {
		damaged = data[:off]
	} else {
		damaged = append([]byte(nil), data...)
		damaged[off] ^= 0xFF
	}
	if err := os.WriteFile(filepath.Join(trial, seg), damaged, 0o644); err != nil {
		fatal("%v", err)
	}

	l, db, err := wal.Open(trial, wal.Options{SegmentMaxBytes: 1024, CompactAfterBytes: -1})
	if err != nil {
		fatal("%s@%s+%d: recovery failed: %v", kind, seg, off, err)
	}
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		fatal("%s@%s+%d: snapshot: %v", kind, seg, off, err)
	}
	if _, ok := prefixes[buf.String()]; !ok {
		fatal("%s@%s+%d: recovered state is not a committed prefix", kind, seg, off)
	}
	n := l.Replayed()
	if err := l.Close(); err != nil {
		fatal("%s@%s+%d: close: %v", kind, seg, off, err)
	}
	return n
}

// segmentFiles lists the wal segment files of a log directory in order.
func segmentFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal("%v", err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs
}
