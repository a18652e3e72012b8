package verify

import (
	"fmt"
	"sync"
	"testing"

	"scooter/internal/ast"
	"scooter/internal/lower"
	"scooter/internal/smt/term"
)

func key(n uint64) CacheKey { return CacheKey{Fp: term.Fp{n, ^n}, Kind: "static:Admin"} }

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(2)
	c.Insert(key(1), Result{Verdict: Safe})
	c.Insert(key(2), Result{Verdict: Violation})
	c.Insert(key(3), Result{Verdict: Safe})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup(key(1)); ok {
		t.Error("key 1 should have been evicted")
	}
	for n, want := range map[uint64]Verdict{2: Violation, 3: Safe} {
		res, ok := c.Lookup(key(n))
		if !ok || res.Verdict != want {
			t.Errorf("key %d: got (%v, %v), want (%v, true)", n, res.Verdict, ok, want)
		}
	}
	if evictions := c.Evictions(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
}

func TestCacheLookupRefreshesRecency(t *testing.T) {
	c := NewCache(2)
	c.Insert(key(1), Result{Verdict: Safe})
	c.Insert(key(2), Result{Verdict: Safe})
	c.Lookup(key(1)) // key 2 becomes least recently used
	c.Insert(key(3), Result{Verdict: Safe})
	if _, ok := c.Lookup(key(1)); !ok {
		t.Error("key 1 was recently used and should survive")
	}
	if _, ok := c.Lookup(key(2)); ok {
		t.Error("key 2 should have been evicted")
	}
}

// TestVerdictAnswersUnderAnyBudget: the key is the query alone, so a
// verdict proved under the default round budget answers the same query
// under a one-round budget from the same store, counterexample included,
// without solving. Both queries need more than one round cold.
func TestVerdictAnswersUnderAnyBudget(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	store := NewCache(8)
	for _, tc := range []struct {
		old, new string
		want     Verdict
	}{
		{`u -> User::Find({adminLevel >= 1}) + u.followers`, `u -> User::Find({adminLevel >= 2, isAdmin: true})`, Safe},
		{`u -> User::Find({adminLevel >= 3}) + u.followers`, `u -> User::Find({adminLevel >= 2}) + User::Find({adminLevel: 2})`, Violation},
	} {
		pOld, pNew := policyOn(t, s, "User", tc.old), policyOn(t, s, "User", tc.new)
		short := New(s, nil)
		short.SolverRounds = 1
		if res, err := short.CheckStrictness("User", pOld, pNew); err != nil || res.Verdict != Inconclusive {
			t.Fatalf("%s => %s: cold one-round run gave (%v, %v), want Inconclusive", tc.old, tc.new, res, err)
		}
		full := New(s, nil)
		full.Cache = store
		cold, err := full.CheckStrictness("User", pOld, pNew)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Verdict != tc.want {
			t.Fatalf("%s => %s: cold verdict %v, want %v", tc.old, tc.new, cold.Verdict, tc.want)
		}
		tight := New(s, nil)
		tight.SolverRounds = 1
		tight.Cache = store
		tight.Stats = &Stats{}
		warm, err := tight.CheckStrictness("User", pOld, pNew)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Verdict != cold.Verdict || fmt.Sprint(warm.Counterexample) != fmt.Sprint(cold.Counterexample) {
			t.Fatalf("%s => %s: one-round run answered %v\n%v\nwant %v\n%v", tc.old, tc.new,
				warm.Verdict, warm.Counterexample, cold.Verdict, cold.Counterexample)
		}
		if snap := tight.Stats.Snapshot(); snap.CacheMisses != 0 || snap.QueriesSolved != 0 {
			t.Fatalf("%s => %s: one-round run missed %d and solved %d queries, want 0 and 0",
				tc.old, tc.new, snap.CacheMisses, snap.QueriesSolved)
		}
	}
}

func TestCacheRejectsInconclusive(t *testing.T) {
	c := NewCache(8)
	c.Insert(key(1), Result{Verdict: Inconclusive})
	if _, ok := c.Lookup(key(1)); ok {
		t.Error("Inconclusive must not be cached: a budget-dependent verdict would shadow retries under a larger budget")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// TestConcurrentCheckerSharedCache hammers one Checker — and through it one
// Cache and one Stats block — from many goroutines, mirroring the deferred
// proof pool of migrate.Verify and the parallel corpus driver. Run with
// -race. Every goroutine must observe the same verdicts, and Violation
// results must render the identical counterexample whether they were solved
// or served from the cache.
func TestConcurrentCheckerSharedCache(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	c := New(s, nil)
	c.Cache = NewCache(64)
	c.Stats = &Stats{}

	cases := []struct {
		old, new string
		want     Verdict
	}{
		{`public`, `none`, Safe},
		{`u -> [u] + User::Find({isAdmin: true})`, `u -> [u]`, Safe},
		{`none`, `public`, Violation},
		{`u -> User::Find({adminLevel: 2})`, `u -> User::Find({adminLevel >= 1})`, Violation},
	}
	type pair struct{ old, new ast.Policy }
	pairs := make([]pair, len(cases))
	for i, tc := range cases {
		pairs[i] = pair{policyOn(t, s, "User", tc.old), policyOn(t, s, "User", tc.new)}
	}

	// Reference counterexamples from a cold sequential pass.
	refs := make([]string, len(cases))
	for i, p := range pairs {
		res, err := c.CheckStrictness("User", p.old, p.new)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != cases[i].want {
			t.Fatalf("case %d: cold verdict %v, want %v", i, res.Verdict, cases[i].want)
		}
		if res.Counterexample != nil {
			refs[i] = res.Counterexample.String()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := (w + i) % len(cases)
				res, err := c.CheckStrictness("User", pairs[k].old, pairs[k].new)
				if err != nil {
					errs <- err
					return
				}
				if res.Verdict != cases[k].want {
					errs <- fmt.Errorf("case %d: verdict %v, want %v", k, res.Verdict, cases[k].want)
					return
				}
				got := ""
				if res.Counterexample != nil {
					got = res.Counterexample.String()
				}
				if got != refs[k] {
					errs <- fmt.Errorf("case %d: counterexample diverged from cold run:\n%s\nvs\n%s", k, got, refs[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if c.Stats.Snapshot().CacheHits == 0 {
		t.Error("expected cache hits during concurrent re-verification")
	}
}

// TestConcurrentProofsOfOneKeySolveOnce releases N goroutines at once on
// one query against a shared Cache. The first to miss solves it; the rest
// wait for that verdict and count as hits, so the counts do not depend on
// how the goroutines interleave. Each round starts from an empty cache.
func TestConcurrentProofsOfOneKeySolveOnce(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	pOld := policyOn(t, s, "User", `u -> User::Find({adminLevel: 2})`)
	pNew := policyOn(t, s, "User", `u -> User::Find({adminLevel >= 1})`)
	kind := lower.PrincipalKind{Model: "User"}
	const n = 8
	for round := 0; round < 20; round++ {
		c := New(s, nil)
		c.Cache = NewCache(64)
		c.Stats = &Stats{}
		start := make(chan struct{})
		var wg sync.WaitGroup
		ces := make([]string, n)
		errs := make(chan error, n)
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				res, err := c.checkKind("User", pNew, "User", pOld, kind)
				if err != nil {
					errs <- err
					return
				}
				if res.Verdict != Violation {
					errs <- fmt.Errorf("verdict %v, want Violation", res.Verdict)
					return
				}
				ces[w] = res.Counterexample.String()
			}(w)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		snap := c.Stats.Snapshot()
		if snap.QueriesSolved != 1 || snap.CacheMisses != 1 || snap.CacheHits != n-1 {
			t.Fatalf("round %d: %d solved, %d miss, %d hit; want 1, 1, %d", round, snap.QueriesSolved, snap.CacheMisses, snap.CacheHits, n-1)
		}
		for w := 1; w < n; w++ {
			if ces[w] != ces[0] {
				t.Fatalf("round %d: counterexamples differ:\n%s\nvs\n%s", round, ces[w], ces[0])
			}
		}
	}
}

// TestInconclusiveProofHandsKeyOn: a proof that ends Inconclusive stores
// nothing, so the proof waiting on its key must solve the key itself
// rather than report a hit; its conclusive verdict then answers later
// lookups.
func TestInconclusiveProofHandsKeyOn(t *testing.T) {
	c := NewCache(8)
	st := &Stats{}
	k := key(1)
	if _, ok := lookupVerdict(c, st, k); ok {
		t.Fatal("hit on an empty cache")
	}
	second := make(chan bool)
	go func() {
		_, ok := lookupVerdict(c, st, k)
		second <- ok
	}()
	storeVerdict(c, k, &Result{Verdict: Inconclusive})
	if <-second {
		t.Fatal("a waiter was answered from an Inconclusive proof")
	}
	storeVerdict(c, k, &Result{Verdict: Safe})
	if res, ok := lookupVerdict(c, st, k); !ok || res.Verdict != Safe {
		t.Fatalf("after the second proof: (%v, %v), want (Safe, true)", res.Verdict, ok)
	}
	if snap := st.Snapshot(); snap.CacheMisses != 2 || snap.CacheHits != 1 {
		t.Fatalf("%d miss / %d hit, want 2 / 1", snap.CacheMisses, snap.CacheHits)
	}
}
