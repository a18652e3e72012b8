package policyc_test

import (
	"sync"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/policyc"
	"scooter/internal/store"
)

const chitterSpec = `
@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  level: I64 { read: u -> [u], write: u -> [u] },
  score: F64 { read: public, write: none },
  isAdmin: Bool { read: public, write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) { read: u -> [u] + u.followers, write: u -> [u] }}
`

func TestCompileCoversChitterFragment(t *testing.T) {
	s, err := loadSpec(chitterSpec)
	if err != nil {
		t.Fatal(err)
	}
	table := policyc.Compile(s)
	compiled, fallbacks := table.Counts()
	if fallbacks != 0 {
		t.Fatalf("chitter spec hit %d interpreter fallbacks", fallbacks)
	}
	if compiled != 12 {
		t.Fatalf("compiled %d policies, want 12", compiled)
	}
	mp := table.Model("User")
	if mp == nil || mp.Create == nil || mp.Delete == nil {
		t.Fatal("model policies incomplete")
	}
	if fp := mp.Field("name"); fp == nil || !fp.Read.Compiled() {
		t.Fatal("public read policy not compiled")
	}
	if mp.Field("nope") != nil {
		t.Fatal("unknown field returned policies")
	}
}

// TestTableConcurrentEval exercises one shared table from many goroutines;
// under -race this proves per-decision state never escapes the rt frame.
func TestTableConcurrentEval(t *testing.T) {
	s, err := loadSpec(chitterSpec)
	if err != nil {
		t.Fatal(err)
	}
	db := store.Open()
	users := db.Collection("User")
	a := users.Insert(store.Doc{"name": "a", "level": int64(1), "score": 0.5, "isAdmin": false, "followers": []store.Value{}})
	b := users.Insert(store.Doc{"name": "b", "level": int64(2), "score": 1.5, "isAdmin": true, "followers": []store.Value{a}})
	table := policyc.Compile(s)
	pols := specPolicies(s, table)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := eval.New(s, db)
			for iter := 0; iter < 50; iter++ {
				for _, id := range []store.ID{a, b} {
					doc, _ := users.Get(id)
					for _, pol := range pols {
						got, gerr := pol.Eval(ev, eval.InstancePrincipal("User", id), doc)
						want, werr := ev.Allowed(eval.InstancePrincipal("User", id), "User", doc, pol.Source())
						if got != want || (gerr != nil) != (werr != nil) {
							t.Errorf("concurrent divergence: (%v,%v) vs (%v,%v)", got, gerr, want, werr)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
