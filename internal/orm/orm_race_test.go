package orm

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/store"
)

// TestConcurrentORMAccess hammers the ORM from many goroutines: reads with
// policy stripping, policy-checked writes, inserts, and deletes. Run with
// -race; the store is the only shared mutable state and must serialise
// correctly beneath concurrent policy evaluation.
func TestConcurrentORMAccess(t *testing.T) {
	fx := newFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fx.alice
			if w%2 == 0 {
				who = fx.bob
			}
			pr := fx.conn.AsPrinc(eval.InstancePrincipal("User", who))
			for i := 0; i < 100; i++ {
				if _, err := pr.FindByID("User", fx.alice); err != nil {
					errs <- err
					return
				}
				if _, err := pr.Find("User", store.Eq("name", "alice")); err != nil {
					errs <- err
					return
				}
				// Policy-checked write to own profile.
				if err := pr.Update("User", who, store.Doc{"pronouns": fmt.Sprintf("p%d", i)}); err != nil {
					errs <- err
					return
				}
				// Insert + delete own peeps.
				id, err := pr.Insert("Peep", store.Doc{"author": who, "body": "x"})
				if err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if err := pr.Delete("Peep", id); err != nil {
						errs <- err
						return
					}
				}
				// Forbidden write must fail deterministically.
				other := fx.alice
				if who == fx.alice {
					other = fx.bob
				}
				err = pr.Update("User", other, store.Doc{"email": "evil@x"})
				var perr *PolicyError
				if !errors.As(err, &perr) {
					errs <- fmt.Errorf("expected PolicyError, got %v", err)
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
}

// TestSharedDocumentsRace runs every reader of shared stored documents —
// the ORM's policy evaluator, backfill batches (FindAfter) and snapshots —
// against every kind of store write. Readers walk every value they are
// handed. Run with -race: a write that edits a stored document in place,
// instead of installing a new one, races with these readers and is
// reported.
func TestSharedDocumentsRace(t *testing.T) {
	fx := newFixture(t)
	db := fx.conn.DB
	users, peeps := db.Collection("User"), db.Collection("Peep")
	users.EnsureIndex("isAdmin")
	for i := 0; i < 8; i++ {
		peeps.Insert(store.Doc{"author": fx.alice, "body": fmt.Sprintf("p%d", i)})
	}

	walk := func(d store.Doc) int {
		n := 0
		for _, v := range d {
			if set, ok := v.([]store.Value); ok {
				n += len(set)
			}
			n++
		}
		return n
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Readers.
	bob := fx.conn.AsPrinc(user(fx.bob))
	run(func(int) error {
		obj, err := bob.FindByID("User", fx.alice)
		if err != nil || obj == nil {
			return fmt.Errorf("FindByID: %v %v", obj, err)
		}
		walk(obj.Fields())
		objs, err := bob.Find("Peep", store.Eq("author", fx.alice))
		for _, o := range objs {
			walk(o.Fields())
		}
		return err
	})
	run(func(int) error {
		for _, d := range users.FindAfter(store.Nil, 2) {
			walk(d)
		}
		return nil
	})
	run(func(int) error { return db.Snapshot(io.Discard) })

	// Writers: one of each kind.
	alice := fx.conn.AsPrinc(user(fx.alice))
	run(func(i int) error {
		return alice.Update("User", fx.alice, store.Doc{"followers": []store.Value{fx.bob, store.ID(i)}})
	})
	run(func(i int) error { return users.Update(fx.bob, store.Doc{"pronouns": fmt.Sprint(i)}) })
	run(func(i int) error {
		_, err := users.UpdateIfAbsent(fx.admin, fmt.Sprintf("x%d", i), int64(i))
		return err
	})
	run(func(i int) error {
		users.UpdateAll(nil, func(d store.Doc) store.Doc { return store.Doc{"seen": int64(i)} })
		users.RemoveField("seen")
		return nil
	})
	run(func(i int) error {
		id := peeps.Insert(store.Doc{"author": fx.alice, "body": "tmp"})
		if err := peeps.InsertWithID(id+1_000_000, store.Doc{"author": fx.bob, "body": "tmp"}); err != nil {
			return err
		}
		peeps.Delete(id)
		peeps.Delete(id + 1_000_000)
		peeps.EnsureIndex("author")
		return nil
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
