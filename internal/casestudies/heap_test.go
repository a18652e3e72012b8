package casestudies

import (
	"runtime"
	"testing"

	"scooter/internal/migrate"
	"scooter/internal/verify"
)

// TestRepeatedVerificationHeapBounded re-verifies the whole corpus many
// times, parsing afresh each pass as a CI fleet replaying histories would,
// and requires the live heap to level off: nothing may keep per-script
// state (parsed ASTs, reference sets) alive after a pass ends. A
// process-lifetime memo keyed by AST node would grow it by kilobytes per
// script per pass.
func TestRepeatedVerificationHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies the corpus 200 times")
	}
	studies, err := AllStudies()
	if err != nil {
		t.Fatal(err)
	}
	// One verdict cache across passes keeps the solver out of the loop;
	// every pass still parses, type-checks and walks every policy.
	opts := migrate.DefaultOptions()
	opts.Cache = verify.NewCache(0)
	pass := func() {
		for _, s := range studies {
			if _, _, err := s.BuildOpts(opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const warm, total = 20, 200
	for i := 0; i < warm; i++ {
		pass()
	}
	base := liveHeap()
	for i := warm; i < total; i++ {
		pass()
	}
	grown := int64(liveHeap()) - int64(base)
	const bound = 2 << 20
	t.Logf("live heap after %d passes: %d B; after %d: %+d B", warm, base, total, grown)
	if grown > bound {
		t.Fatalf("live heap grew %d B over %d further passes (bound %d B)", grown, total-warm, bound)
	}
}
