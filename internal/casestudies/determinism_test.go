package casestudies

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/specfmt"
	"scooter/internal/verify"
)

// formatHistory replays a study under opts and renders every per-command
// report plus the final specification, so two replays can be compared byte
// for byte.
func formatHistory(t *testing.T, s *Study, opts migrate.Options) string {
	t.Helper()
	final, plans, err := s.BuildOpts(opts)
	if err != nil {
		t.Fatalf("%s: %v", s.Key, err)
	}
	var b strings.Builder
	for i, plan := range plans {
		fmt.Fprintf(&b, "script %s\n", s.Scripts[i].Name)
		for _, r := range plan.Reports {
			fmt.Fprintf(&b, "  %d %s weakened=%v reason=%q", r.Index, r.Command.Name(), r.Weakened, r.Reason)
			for _, fl := range r.Flows {
				fmt.Fprintf(&b, " flow=%s", fl)
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString(specfmt.Format(final))
	return b.String()
}

// TestCachedVerificationMatchesCold replays every study history three ways —
// uncached, against a cold cache, and against the warm cache the cold run
// populated — and requires byte-identical reports and final specifications.
// This is the acceptance property of the verdict cache: memoization must be
// invisible to everything but wall time.
func TestCachedVerificationMatchesCold(t *testing.T) {
	studies, err := Studies()
	if err != nil {
		t.Fatal(err)
	}
	for _, study := range studies {
		study := study
		t.Run(study.Key, func(t *testing.T) {
			uncached := formatHistory(t, study, migrate.DefaultOptions())

			opts := migrate.DefaultOptions()
			opts.Cache = verify.NewCache(0)
			opts.Stats = &verify.Stats{}
			cold := formatHistory(t, study, opts)
			warm := formatHistory(t, study, opts)

			if cold != uncached {
				t.Errorf("cold cached replay diverged from uncached:\n--- uncached\n%s\n--- cached\n%s", uncached, cold)
			}
			if warm != uncached {
				t.Errorf("warm cached replay diverged from uncached:\n--- uncached\n%s\n--- warm\n%s", uncached, warm)
			}
			// Bootstrap-only histories pose no strictness queries; only
			// expect hits when the cold run actually populated the cache.
			snap := opts.Stats.Snapshot()
			if snap.CacheMisses > 0 && snap.CacheHits == 0 {
				t.Errorf("warm replay recorded no cache hits (stats: %s)", snap)
			}
		})
	}
}

// TestMetricsMatchTraced verifies the default driver — concurrent
// studies, parallel deferred proofs — reports exactly what a traced
// replay, which proves each script's obligations in command order,
// reports.
func TestMetricsMatchTraced(t *testing.T) {
	traced := migrate.DefaultOptions()
	traced.Trace = obs.NewTracer(io.Discard)
	want, err := MetricsOpts(traced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if FormatFigure5(got) != FormatFigure5(want) {
		t.Errorf("concurrent metrics diverged:\n%s\nvs traced:\n%s", FormatFigure5(got), FormatFigure5(want))
	}
}
