package verify

import (
	"fmt"
	"sync"
)

// Stats aggregates verification counters across every query routed through
// a Checker (or a whole migration history, when shared via
// migrate.Options). It is the one counter set of the verifier: the store
// counts only evictions and corrupt records, and a Workspace exports its
// Prometheus verifier and solver counters from a Stats snapshot. One
// mutex guards the whole block so a Snapshot is always internally
// consistent — recordSolve bumps several related counters, and per-field
// atomics would let a concurrent Snapshot observe a query counted with
// only part of its solver effort (a torn read the /metrics scraper would
// hit constantly). A nil *Stats is a valid no-op
// sink; a non-nil Stats may be shared by concurrent checkers.
type Stats struct {
	mu   sync.Mutex
	snap Snapshot
}

// Snapshot is a point-in-time copy of Stats, safe to compare and print.
type Snapshot struct {
	// A proof looks its verdict up in its one store. CacheHits /
	// CacheMisses count lookups in an in-memory store; PersistHits /
	// PersistMisses count lookups in a file-backed one (OpenVerdictDB).
	CacheHits, CacheMisses     int64
	PersistHits, PersistMisses int64
	// QueriesSolved counts leakage queries actually handed to the SMT
	// solver (cache hits skip the solver entirely).
	QueriesSolved int64
	// SolverRounds and TheoryChecks accumulate the CDCL(T) loop's own
	// counters; Conflicts, Decisions, Propagations and Restarts come from
	// the SAT core.
	SolverRounds, TheoryChecks                   int64
	Conflicts, Decisions, Propagations, Restarts int64
}

// Snapshot returns a consistent copy of the current counters: every query
// recorded is present with all of its solver effort. Nil-safe.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Sub returns the delta snapshot s - prev; used by benchmarks to report
// per-phase counters.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		CacheHits:     s.CacheHits - prev.CacheHits,
		CacheMisses:   s.CacheMisses - prev.CacheMisses,
		PersistHits:   s.PersistHits - prev.PersistHits,
		PersistMisses: s.PersistMisses - prev.PersistMisses,
		QueriesSolved: s.QueriesSolved - prev.QueriesSolved,
		SolverRounds:  s.SolverRounds - prev.SolverRounds,
		TheoryChecks:  s.TheoryChecks - prev.TheoryChecks,
		Conflicts:     s.Conflicts - prev.Conflicts,
		Decisions:     s.Decisions - prev.Decisions,
		Propagations:  s.Propagations - prev.Propagations,
		Restarts:      s.Restarts - prev.Restarts,
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf(
		"cache %d hit / %d miss · persist %d hit / %d miss · %d queries solved · %d rounds · %d theory checks · sat %d conflicts / %d decisions / %d propagations / %d restarts",
		s.CacheHits, s.CacheMisses, s.PersistHits, s.PersistMisses, s.QueriesSolved,
		s.SolverRounds, s.TheoryChecks, s.Conflicts, s.Decisions, s.Propagations, s.Restarts)
}

// recordSolve accumulates one solver run as a unit. Nil-safe.
func (s *Stats) recordSolve(rounds, theoryChecks int, conflicts, decisions, propagations, restarts int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.QueriesSolved++
	s.snap.SolverRounds += int64(rounds)
	s.snap.TheoryChecks += int64(theoryChecks)
	s.snap.Conflicts += conflicts
	s.snap.Decisions += decisions
	s.snap.Propagations += propagations
	s.snap.Restarts += restarts
}

// recordLookup counts one verdict-store lookup under its tier: a
// file-backed store when persist is set, else an in-memory one. Nil-safe.
func (s *Stats) recordLookup(persist, hit bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case persist && hit:
		s.snap.PersistHits++
	case persist:
		s.snap.PersistMisses++
	case hit:
		s.snap.CacheHits++
	default:
		s.snap.CacheMisses++
	}
}
