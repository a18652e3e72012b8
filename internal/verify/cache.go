package verify

import (
	"container/list"
	"hash/fnv"
	"os"
	"sort"
	"sync"

	"scooter/internal/lower"
	"scooter/internal/smt/term"
)

// DefaultCacheCapacity bounds a NewCache(0) verdict cache.
const DefaultCacheCapacity = 4096

// CacheKey identifies a strictness query up to alpha-equivalence: the
// query is the whole of what a stored verdict answers for. Two queries
// share a key when their lowered leakage formulas are structurally
// identical modulo constant renaming (term.Fp), target the same principal
// kind, and mention the same string literals and static principals (Aux —
// kept so a cached counterexample renders the same literals the query
// used).
//
// No solver budget belongs in the key. Only definitive verdicts are
// stored, and an Unsat or Sat answer — with the counterexample rendered
// from its model — is a fact about the formula, not about the rounds,
// conflicts or time it took to find, so a verdict proved under one budget
// answers a run under any other.
type CacheKey struct {
	Fp   term.Fp
	Aux  uint64
	Kind string
}

// Cache is the verifier's one verdict store: a concurrency-safe, bounded
// LRU keyed by CacheKey. Violation entries retain the rendered
// counterexample, so a warm cache reproduces cold verification byte for
// byte. A Cache from OpenVerdictDB is also backed by an append-only file,
// so its verdicts outlive the process. The zero value is not usable; call
// NewCache or OpenVerdictDB.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[CacheKey]*list.Element

	evictions int64
	flights   inflight

	// f is the verdict file backing the cache (nil in memory only); set
	// before the cache is shared and never changed after.
	f        *os.File
	writeErr error
	corrupt  int64
}

type cacheEntry struct {
	key CacheKey
	res Result
}

// NewCache returns an in-memory verdict cache holding at most capacity
// entries (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{cap: capacity, ll: list.New(), m: map[CacheKey]*list.Element{}}
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions reports how many verdicts the capacity bound has evicted.
// Lookups are counted in Stats, not here.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Lookup returns the cached result for key. The returned Result is a
// copy; its Counterexample pointer is shared and must be treated as
// read-only (it is immutable after rendering).
func (c *Cache) Lookup(key CacheKey) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Insert stores res under key, evicting the least recently used entry
// when the cache is full, and appends a new key's verdict to the backing
// file when there is one. Inconclusive results are not admitted: which
// budget ran out (rounds, conflicts, pivots, deadline) depends on the run,
// and no budget is in the key, so a cached Unknown would shadow every
// later retry of the query under a larger budget.
func (c *Cache) Insert(key CacheKey, res Result) {
	if res.Verdict == Inconclusive {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.put(key, res) && c.f != nil {
		c.appendRecord(key, res)
	}
}

// put stores res under key in memory and reports whether key was new.
// The caller holds c.mu (or owns a cache not yet shared).
func (c *Cache) put(key CacheKey, res Result) bool {
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return false
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
		c.evictions++
	}
	return true
}

// inflight holds one entry per key whose proof is being solved, so a
// concurrent proof of the same key waits for that verdict instead of
// solving the query a second time. The zero value is ready to use.
type inflight struct {
	mu sync.Mutex
	m  map[CacheKey]chan struct{}
}

// claim makes the caller the solver of key and returns nil, or returns
// the channel that closes when the current solver of key finishes.
func (f *inflight) claim(key CacheKey) <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if wait, ok := f.m[key]; ok {
		return wait
	}
	if f.m == nil {
		f.m = map[CacheKey]chan struct{}{}
	}
	f.m[key] = make(chan struct{})
	return nil
}

// finish ends the caller's claim on key and wakes its waiters.
func (f *inflight) finish(key CacheKey) {
	f.mu.Lock()
	wait, ok := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	if ok {
		close(wait)
	}
}

// lookupVerdict answers key from store (nil-safe). The lookup is counted
// in st (nil-safe) under the store's tier: persist when it is file-backed,
// else cache.
//
// A miss makes the caller the solver of key, and it must call
// storeVerdict for key once it is done (defer it, so a failed or
// panicking proof still lets go). A lookup of a key that is being solved
// waits for that proof and counts as a hit; if the proof ends without a
// storable verdict (Inconclusive, an error), one waiter becomes the next
// solver and proves the key under its own budget.
func lookupVerdict(store *Cache, st *Stats, key CacheKey) (Result, bool) {
	if store == nil {
		return Result{}, false
	}
	persist := store.f != nil
	for {
		if res, ok := store.Lookup(key); ok {
			st.recordLookup(persist, true)
			return res, true
		}
		wait := store.flights.claim(key)
		if wait == nil {
			// A solver may have stored the verdict and finished between
			// the lookup and the claim.
			if res, ok := store.Lookup(key); ok {
				store.flights.finish(key)
				st.recordLookup(persist, true)
				return res, true
			}
			st.recordLookup(persist, false)
			return Result{}, false
		}
		<-wait
	}
}

// storeVerdict records res under key in store (nil-safe). A nil res, and
// an Inconclusive one, store nothing. Either way the caller's claim on key
// ends and proofs waiting for it resume.
func storeVerdict(store *Cache, key CacheKey, res *Result) {
	if store == nil {
		return
	}
	if res != nil {
		store.Insert(key, *res)
	}
	store.flights.finish(key)
}

// QueryKey derives the cache key for a lowered leakage query. Beyond the
// formula itself, the fingerprint covers the principal and instance terms
// and the string-literal/static constants in sorted-value order:
// alpha-renaming canonicalises constant names, so these extra roots pin
// each special constant's role — two queries whose literals swap places
// hash differently, keeping retained counterexamples faithful.
func QueryKey(q *lower.Query) CacheKey {
	roots := []term.T{q.Formula, q.PrincipalTerm, q.InstanceTerm}
	for _, lit := range sortedKeys(q.StringLits) {
		roots = append(roots, q.StringLits[lit])
	}
	for _, st := range sortedKeys(q.Statics) {
		roots = append(roots, q.Statics[st])
	}
	return CacheKey{
		Fp:   q.B.Fingerprint(roots...),
		Aux:  auxDigest(q),
		Kind: q.Kind.String(),
	}
}

func sortedKeys(m map[string]term.T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// auxDigest hashes the query's string-literal values and static principal
// names. The formula fingerprint is alpha-invariant, so without this two
// queries differing only in which literal a constant stands for would
// share an entry — sound for the verdict, but the retained counterexample
// would print the wrong literal.
func auxDigest(q *lower.Query) uint64 {
	names := make([]string, 0, len(q.StringLits)+len(q.Statics))
	for lit := range q.StringLits {
		names = append(names, "s\x00"+lit)
	}
	for st := range q.Statics {
		names = append(names, "p\x00"+st)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
