package verify

import (
	"sync"
	"testing"
)

// TestStatsSnapshotConsistency hammers Stats from concurrent recorders
// while snapshotting: because recordSolve writes all solve-derived
// counters under one mutex, every snapshot must see them advance in
// lockstep (equal values when each solve records 1 of each). The old
// per-field atomics allowed torn snapshots where QueriesSolved had
// advanced but Conflicts had not; run under -race this also proves the
// accessors are data-race free.
func TestStatsSnapshotConsistency(t *testing.T) {
	s := &Stats{}
	const writers = 8
	const perWriter = 2000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapshotsDone := make(chan struct{})
	go func() {
		defer close(snapshotsDone)
		for {
			snap := s.Snapshot()
			if snap.QueriesSolved != snap.SolverRounds ||
				snap.QueriesSolved != snap.TheoryChecks ||
				snap.QueriesSolved != snap.Conflicts ||
				snap.QueriesSolved != snap.Decisions ||
				snap.QueriesSolved != snap.Propagations ||
				snap.QueriesSolved != snap.Restarts {
				t.Errorf("torn snapshot: %+v", snap)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.recordSolve(1, 1, 1, 1, 1, 1)
				s.recordLookup(false, true)
				s.recordLookup(false, false)
				s.recordLookup(true, true)
				s.recordLookup(true, false)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapshotsDone

	snap := s.Snapshot()
	const total = writers * perWriter
	if snap.QueriesSolved != total {
		t.Fatalf("QueriesSolved = %d, want %d", snap.QueriesSolved, total)
	}
	if snap.CacheHits != total || snap.CacheMisses != total {
		t.Fatalf("hits/misses = %d/%d, want %d each", snap.CacheHits, snap.CacheMisses, total)
	}
	if snap.PersistHits != total || snap.PersistMisses != total {
		t.Fatalf("persist hits/misses = %d/%d, want %d each", snap.PersistHits, snap.PersistMisses, total)
	}
}

// TestStatsSub checks window arithmetic includes every field.
func TestStatsSub(t *testing.T) {
	a := Snapshot{CacheHits: 5, CacheMisses: 4, QueriesSolved: 3, SolverRounds: 6,
		TheoryChecks: 7, Conflicts: 8, Decisions: 9, Propagations: 10, Restarts: 2}
	b := Snapshot{CacheHits: 1, CacheMisses: 1, QueriesSolved: 1, SolverRounds: 1,
		TheoryChecks: 1, Conflicts: 1, Decisions: 1, Propagations: 1, Restarts: 1}
	d := a.Sub(b)
	want := Snapshot{CacheHits: 4, CacheMisses: 3, QueriesSolved: 2, SolverRounds: 5,
		TheoryChecks: 6, Conflicts: 7, Decisions: 8, Propagations: 9, Restarts: 1}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
}
