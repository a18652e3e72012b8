package equivcheck

import (
	"testing"

	"scooter/internal/store"
)

func TestMultisets(t *testing.T) {
	// C(n+c-1, c) sequences: the canonical representatives of document
	// multisets up to renaming.
	cases := []struct{ n, c, want int }{
		{1, 0, 1}, {1, 2, 1}, {2, 2, 3}, {3, 2, 6}, {4, 3, 20}, {0, 1, 0},
	}
	for _, tc := range cases {
		got := multisets(tc.n, tc.c)
		if len(got) != tc.want {
			t.Fatalf("multisets(%d,%d): %d sequences, want %d", tc.n, tc.c, len(got), tc.want)
		}
		for _, seq := range got {
			for i := 1; i < len(seq); i++ {
				if seq[i] < seq[i-1] {
					t.Fatalf("multisets(%d,%d): %v is not non-decreasing", tc.n, tc.c, seq)
				}
			}
		}
	}
}

func TestRenderValueCanonical(t *testing.T) {
	// Sets render as sorted multisets: element order is an execution
	// artifact, not an observable difference.
	a := []store.Value{store.ID(2), store.ID(1)}
	b := []store.Value{store.ID(1), store.ID(2)}
	if renderValue(a) != renderValue(b) {
		t.Fatalf("set order must not matter: %s vs %s", renderValue(a), renderValue(b))
	}
	if got := renderValue(store.Some(int64(3))); got != "Some(3)" {
		t.Fatalf("optional rendering: %s", got)
	}
	if got := renderValue(store.None()); got != "None" {
		t.Fatalf("none rendering: %s", got)
	}
}

func TestDiffStoresSkipsEmptyCollections(t *testing.T) {
	// CreateModel materialises an empty collection eagerly; a store that
	// merely has the (empty) collection must equal one that never touched
	// it — no query distinguishes them.
	a, b := store.Open(), store.Open()
	a.Collection("Ghost")
	if div := diffStores(a, b); div != nil {
		t.Fatalf("empty collection must not diverge: %+v", div)
	}
	if err := a.Collection("User").InsertWithID(1, store.Doc{"name": "x"}); err != nil {
		t.Fatal(err)
	}
	div := diffStores(a, b)
	if div == nil || div.collection != "User" {
		t.Fatalf("expected User count divergence, got %+v", div)
	}
}

func TestDiffStoresFirstDivergingField(t *testing.T) {
	a, b := store.Open(), store.Open()
	doc := store.Doc{"alpha": int64(1), "beta": "same"}
	if err := a.Collection("M").InsertWithID(1, doc); err != nil {
		t.Fatal(err)
	}
	if err := b.Collection("M").InsertWithID(1, store.Doc{"alpha": int64(2), "beta": "same"}); err != nil {
		t.Fatal(err)
	}
	div := diffStores(a, b)
	if div == nil || div.collection != "M" || div.field != "alpha" || div.va != "1" || div.vb != "2" {
		t.Fatalf("expected M.alpha 1 vs 2, got %+v", div)
	}
}
