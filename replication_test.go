package scooter_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"scooter"
)

func fastFollowerOpts() scooter.FollowerOptions {
	return scooter.FollowerOptions{
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		AckInterval: 10 * time.Millisecond,
	}
}

// TestFollowerWorkspaceEnforcesPolicies replicates a primary workspace —
// spec, policies, and data — and checks that reads on the follower go
// through the same policy enforcement, while writes are rejected.
func TestFollowerWorkspaceEnforcesPolicies(t *testing.T) {
	w, err := scooter.OpenDurable(t.TempDir(), scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Migrate(`
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] },
  email: String { read: u -> [u], write: u -> [u] },
});
`); err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	aliceID, err := anon.Insert("User", scooter.Doc{"name": "alice", "email": "a@x"})
	if err != nil {
		t.Fatal(err)
	}
	bobID, err := anon.Insert("User", scooter.Doc{"name": "bob", "email": "b@x"})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := w.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fw, err := scooter.OpenFollower(t.TempDir(), srv.Addr().String(), fastFollowerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := fw.WaitForLSN(w.DurableLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	if got := len(fw.Models()); got != 1 {
		t.Fatalf("follower models: %d", got)
	}

	// Policy enforcement on the replica's read path: bob must not see
	// alice's email, alice sees her own.
	bob := fw.AsPrinc(scooter.Instance("User", bobID))
	obj, err := bob.FindByID("User", aliceID)
	if err != nil {
		t.Fatal(err)
	}
	if obj == nil {
		t.Fatal("replicated instance missing")
	}
	if _, visible := obj.Get("email"); visible {
		t.Fatal("follower leaked a field the read policy hides")
	}
	if v, _ := obj.Get("name"); v != "alice" {
		t.Fatalf("name: %v", v)
	}
	alice := fw.AsPrinc(scooter.Instance("User", aliceID))
	own, err := alice.FindByID("User", aliceID)
	if err != nil {
		t.Fatal(err)
	}
	if v, visible := own.Get("email"); !visible || v != "a@x" {
		t.Fatalf("alice's own email: %v (visible=%v)", v, visible)
	}

	// Writes through the follower are rejected before policy evaluation.
	if _, err := alice.Insert("User", scooter.Doc{"name": "x", "email": "x@x"}); !errors.Is(err, scooter.ErrReadOnly) {
		t.Fatalf("follower insert: %v, want ErrReadOnly", err)
	}
	if err := alice.Update("User", aliceID, scooter.Doc{"name": "y"}); !errors.Is(err, scooter.ErrReadOnly) {
		t.Fatalf("follower update: %v, want ErrReadOnly", err)
	}
	if err := alice.Delete("User", aliceID); !errors.Is(err, scooter.ErrReadOnly) {
		t.Fatalf("follower delete: %v, want ErrReadOnly", err)
	}

	// A migration on the primary replicates: the follower's spec (and so
	// its policies) advances with the data.
	if err := w.Migrate(`
CreateModel(Note {
  create: n -> [n.owner],
  delete: n -> [n.owner],
  owner: Id(User) { read: public, write: none },
  body: String { read: n -> [n.owner], write: n -> [n.owner] },
});
`); err != nil {
		t.Fatal(err)
	}
	noteID, err := w.AsPrinc(scooter.Instance("User", aliceID)).
		Insert("Note", scooter.Doc{"owner": aliceID, "body": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WaitForLSN(w.DurableLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(fw.Models()); got != 2 {
		t.Fatalf("follower models after migration: %d", got)
	}
	note, err := fw.AsPrinc(scooter.Instance("User", bobID)).FindByID("Note", noteID)
	if err != nil {
		t.Fatal(err)
	}
	if _, visible := note.Get("body"); visible {
		t.Fatal("follower leaked a field of a migrated-in model")
	}

	st := fw.ReplicationStatus()
	if !st.Connected || st.AppliedLSN != w.DurableLSN() {
		t.Fatalf("status: %+v (primary durable %d)", st, w.DurableLSN())
	}
}

// TestWorkspaceCloseIdempotent checks the satellite contract: Close is
// safe under concurrent callers and every call after the first returns
// nil. Sync racing Close must not fail either: once the log is closed it
// has nothing to sync.
func TestWorkspaceCloseIdempotent(t *testing.T) {
	w, err := scooter.OpenDurable(t.TempDir(), scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ServeReplication("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	_ = anon

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				errs[i] = w.Close()
			} else {
				errs[i] = w.Sync()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close/Sync %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// An in-memory workspace closes cleanly too.
	m := scooter.NewWorkspace()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
