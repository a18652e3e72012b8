package casestudies

import (
	"testing"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/lower"
	"scooter/internal/schema"
	"scooter/internal/smt/solver"
	"scooter/internal/verify"
)

// corpusPolicyPairs enumerates, per study model, the ordered pairs of
// distinct policies declared on that model (capped to keep the table
// bounded). Each pair (old, new) is a strictness query the verifier could
// pose, so together they exercise fingerprinting over the real corpus.
type policyPair struct {
	model    string
	old, new ast.Policy
}

func corpusPolicyPairs(t *testing.T, s *schema.Schema) []policyPair {
	t.Helper()
	const maxPerModel = 5
	var pairs []policyPair
	for _, m := range s.Models {
		seen := map[string]bool{}
		var pols []ast.Policy
		collect := func(p ast.Policy) {
			if len(pols) < maxPerModel && !seen[p.String()] {
				seen[p.String()] = true
				pols = append(pols, p)
			}
		}
		collect(m.Create)
		collect(m.Delete)
		for _, f := range m.Fields {
			collect(f.Read)
			collect(f.Write)
		}
		for _, p := range pols {
			for _, q := range pols {
				pairs = append(pairs, policyPair{model: m.Name, old: p, new: q})
			}
		}
	}
	return pairs
}

func buildKey(t *testing.T, s *schema.Schema, pp policyPair, kind lower.PrincipalKind) (verify.CacheKey, *lower.Query) {
	t.Helper()
	ctx := lower.NewContext(s, equiv.New())
	q, err := lower.BuildCrossLeakageQuery(ctx, pp.model, pp.new, pp.model, pp.old, kind)
	if err != nil {
		t.Fatalf("lowering %s: %q -> %q: %v", pp.model, pp.old.String(), pp.new.String(), err)
	}
	return verify.QueryKey(q), q
}

// TestCorpusFingerprints drives the canonical fingerprint over every
// strictness query derivable from the corpus's final schemas and checks the
// two properties the verdict cache relies on:
//
//  1. Stability — lowering the same query in independent fresh contexts
//     yields the same cache key, so replays and CI re-verification hit.
//  2. Collision soundness — queries that share a cache key must have the
//     same solver verdict. Alpha-equivalent queries are meant to share
//     (that is the point of canonicalisation); this asserts that whenever
//     they do, serving one's verdict for the other is correct.
//
// Distinctness is asserted as non-degeneracy: a study's query population
// must not collapse into a handful of fingerprints.
func TestCorpusFingerprints(t *testing.T) {
	studies, err := Studies()
	if err != nil {
		t.Fatal(err)
	}
	for _, study := range studies {
		study := study
		t.Run(study.Key, func(t *testing.T) {
			final, _, err := study.Build()
			if err != nil {
				t.Fatal(err)
			}
			pairs := corpusPolicyPairs(t, final)
			kinds := lower.PrincipalKinds(final)
			if len(kinds) == 0 {
				t.Fatalf("study %s has no principal kinds", study.Key)
			}

			type entry struct {
				pp     policyPair
				kind   lower.PrincipalKind
				status solver.Status
			}
			groups := map[verify.CacheKey][]entry{}
			distinct := map[[2]uint64]bool{}
			for _, pp := range pairs {
				for _, kind := range kinds {
					k1, q := buildKey(t, final, pp, kind)
					k2, _ := buildKey(t, final, pp, kind)
					if k1 != k2 {
						t.Fatalf("unstable key for %s: %q -> %q (kind %s): %v vs %v",
							pp.model, pp.old.String(), pp.new.String(), kind, k1, k2)
					}
					sv := solver.New(q.B)
					sv.Assert(q.Formula)
					st, err := sv.Check()
					if err != nil {
						t.Fatal(err)
					}
					groups[k1] = append(groups[k1], entry{pp: pp, kind: kind, status: st})
					distinct[[2]uint64(k1.Fp)] = true
				}
			}

			for k, es := range groups {
				for _, e := range es[1:] {
					if e.status != es[0].status {
						t.Errorf("key %v shared by queries with different verdicts: %s %q->%q (%s, %v) vs %s %q->%q (%s, %v)",
							k,
							es[0].pp.model, es[0].pp.old.String(), es[0].pp.new.String(), es[0].kind, es[0].status,
							e.pp.model, e.pp.old.String(), e.pp.new.String(), e.kind, e.status)
					}
				}
			}

			// Non-degeneracy: distinct policy structures must spread out.
			if len(distinct) < 2 {
				t.Errorf("study %s: %d queries collapsed into %d fingerprint(s)",
					study.Key, len(pairs)*len(kinds), len(distinct))
			}
			t.Logf("%s: %d queries, %d distinct fingerprints", study.Key, len(pairs)*len(kinds), len(distinct))
		})
	}
}
