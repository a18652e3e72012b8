package scooter

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestClosedWorkspaceIsCollected is the regression for a closed
// workspace's database staying reachable from process-global state: any
// policy-evaluation state that outlives its connection and caches the
// database it last read pins every document. The sentinel is a
// pointer-free 1 MiB buffer stored as a Blob; a finalizer on the buffer
// (a leaf, unlike the store's cyclic DB/Collection graph) reports its
// collection.
func TestClosedWorkspaceIsCollected(t *testing.T) {
	var collected atomic.Bool
	func() {
		w, err := OpenDurable(t.TempDir(), DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.MigrateNamed("001_init", `
CreateModel(@principal User {
  create: public,
  delete: none,
  isAdmin: Bool { read: public, write: none },
  avatar: Blob { read: u -> [u] + User::Find({isAdmin: true}), write: none },
});
`); err != nil {
			t.Fatal(err)
		}
		sentinel := new([1 << 20]byte)
		runtime.SetFinalizer(sentinel, func(*[1 << 20]byte) { collected.Store(true) })
		anyone := w.AsPrinc(Static("nobody"))
		owner, err := anyone.Insert("User", Doc{
			"isAdmin": false, "avatar": unsafe.String(&sentinel[0], len(sentinel)),
		})
		if err != nil {
			t.Fatal(err)
		}
		reader, err := anyone.Insert("User", Doc{"isAdmin": false, "avatar": ""})
		if err != nil {
			t.Fatal(err)
		}
		// A different, non-admin reader: the [u] branch fails, so the
		// Find({isAdmin: true}) probe runs and caches the database.
		obj, err := w.AsPrinc(Instance("User", reader)).FindByID("User", owner)
		if err != nil || obj == nil {
			t.Fatalf("FindByID: %v, %v", obj, err)
		}
		if _, ok := obj.Get("avatar"); ok {
			t.Fatal("a non-admin read another user's avatar")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 10 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // let the finalizer goroutine run
	}
	if !collected.Load() {
		t.Fatal("a closed workspace's documents are still reachable after 10 GCs")
	}
}
