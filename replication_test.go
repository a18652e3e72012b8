package scooter_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	if _, err := w.MigrateNamed("001_users", `
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
	if _, err := w.MigrateNamed("002_notes", `
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
	base := runtime.NumGoroutine()
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
	checkGoroutines(t, base)

	// An in-memory workspace closes cleanly too.
	m := scooter.NewWorkspace()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkGoroutines waits, for a bounded time, until no more than base
// goroutines run, and fails with every goroutine's stack if some outlive
// the wait: whatever a Close should have stopped is still running.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, want <= %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const drillSpec = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] },
  email: String { read: u -> [u], write: u -> [u] },
});
CreateModel(Note {
  create: n -> [n.owner],
  delete: n -> [n.owner],
  owner: Id(User) { read: public, write: none },
  body: String { read: n -> [n.owner], write: n -> [n.owner] },
});
`

// drill owns both ends of a replication pair and the primary's state hash
// at every durable LSN it reached.
type drill struct {
	t                   *testing.T
	rng                 *rand.Rand
	primaryDir, follDir string
	addr                string

	w  *scooter.Workspace
	fw *scooter.FollowerWorkspace

	aliceID, bobID scooter.ID
	noteIDs        []scooter.ID

	states   map[uint64]string
	firstLSN uint64

	ops, follKills, primKills, bootstraps int
}

// record stores the primary's state hash at its current durable LSN. The
// drill is single-threaded, so the pair is consistent.
func (d *drill) record() {
	d.t.Helper()
	lsn, hash, err := d.w.StateHash()
	if err != nil {
		d.t.Fatal(err)
	}
	d.states[lsn] = hash
	if d.firstLSN == 0 || lsn < d.firstLSN {
		d.firstLSN = lsn
	}
}

// openPrimary (re)opens the durable workspace, replays the migration
// history, and serves replication on the address of the previous boot.
// Tiny segments make the run cross many rotations; manual compaction maps
// every LSN to one drill action.
func (d *drill) openPrimary() {
	d.t.Helper()
	w, err := scooter.OpenDurable(d.primaryDir, scooter.DurabilityOptions{SegmentMaxBytes: 2048, CompactAfterBytes: -1})
	if err != nil {
		d.t.Fatal(err)
	}
	if _, err := w.MigrateNamed("setup", drillSpec); err != nil {
		d.t.Fatal(err)
	}
	bind := d.addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	srv, err := w.ServeReplication(bind)
	if err != nil {
		d.t.Fatal(err)
	}
	d.w, d.addr = w, srv.Addr().String()
}

func (d *drill) openFollower() {
	d.t.Helper()
	fw, err := scooter.OpenFollower(d.follDir, d.addr, fastFollowerOpts())
	if err != nil {
		d.t.Fatal(err)
	}
	d.fw = fw
}

// oneOp performs one random single-record write through the primary's
// policy-checked ORM and records the resulting state.
func (d *drill) oneOp() {
	d.t.Helper()
	alice := d.w.AsPrinc(scooter.Instance("User", d.aliceID))
	var err error
	switch r := d.rng.Intn(10); {
	case r < 5 || len(d.noteIDs) == 0:
		var id scooter.ID
		id, err = alice.Insert("Note", scooter.Doc{
			"owner": d.aliceID,
			"body":  fmt.Sprintf("note-%d-%d", d.ops, d.rng.Intn(1000)),
		})
		d.noteIDs = append(d.noteIDs, id)
	case r < 8:
		id := d.noteIDs[d.rng.Intn(len(d.noteIDs))]
		err = alice.Update("Note", id, scooter.Doc{"body": fmt.Sprintf("edit-%d", d.ops)})
	default:
		i := d.rng.Intn(len(d.noteIDs))
		id := d.noteIDs[i]
		d.noteIDs = append(d.noteIDs[:i], d.noteIDs[i+1:]...)
		err = alice.Delete("Note", id)
	}
	if err != nil {
		d.t.Fatal(err)
	}
	d.ops++
	d.record()
}

// checkFollowerPolicies proves reads on the follower still enforce the
// read policies and writes are refused.
func (d *drill) checkFollowerPolicies() {
	d.t.Helper()
	bob := d.fw.AsPrinc(scooter.Instance("User", d.bobID))
	obj, err := bob.FindByID("User", d.aliceID)
	if err != nil {
		d.t.Fatal(err)
	}
	if obj == nil {
		d.t.Fatal("follower lost a replicated instance")
	}
	if _, visible := obj.Get("email"); visible {
		d.t.Fatal("follower exposed a field its read policy hides")
	}
	if _, visible := obj.Get("name"); !visible {
		d.t.Fatal("follower hid a public field")
	}
	if _, err := bob.Insert("User", scooter.Doc{"name": "evil", "email": "e@x"}); !errors.Is(err, scooter.ErrReadOnly) {
		d.t.Fatalf("follower accepted a write: %v", err)
	}
}

// converge waits until the follower applied everything durable on the
// primary and the state hashes match.
func (d *drill) converge() {
	d.t.Helper()
	if err := d.fw.WaitForLSN(d.w.DurableLSN(), 20*time.Second); err != nil {
		d.t.Fatal(err)
	}
	plsn, phash, err := d.w.StateHash()
	if err != nil {
		d.t.Fatal(err)
	}
	flsn, fhash, err := d.fw.StateHash()
	if err != nil {
		d.t.Fatal(err)
	}
	if flsn != plsn || fhash != phash {
		d.t.Fatalf("follower (LSN %d, hash %.12s) diverged from primary (LSN %d, hash %.12s)", flsn, fhash, plsn, phash)
	}
}

// crashFollower closes the follower, tears bytes off its newest mirrored
// segment, checks that the recovered state is the primary's state at the
// same LSN, and restarts it. With fallBehind the primary writes on and
// compacts while the follower is down, so the restart must bootstrap from
// a snapshot.
func (d *drill) crashFollower(fallBehind bool) {
	d.t.Helper()
	d.bootstraps += d.fw.ReplicationStatus().Bootstraps
	if err := d.fw.Close(); err != nil {
		d.t.Fatal(err)
	}
	d.tearTail(int64(1 + d.rng.Intn(24)))

	rec, err := scooter.OpenDurable(d.follDir, scooter.DurabilityOptions{CompactAfterBytes: -1})
	if err != nil {
		d.t.Fatalf("recover follower dir: %v", err)
	}
	lsn, hash, err := rec.StateHash()
	if err != nil {
		d.t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		d.t.Fatal(err)
	}
	if lsn >= d.firstLSN {
		want, ok := d.states[lsn]
		if !ok {
			d.t.Fatalf("follower recovered to LSN %d, which no committed primary state matches", lsn)
		}
		if hash != want {
			d.t.Fatalf("follower state at LSN %d is not the primary's state at that LSN", lsn)
		}
	}

	if fallBehind {
		for i := 0; i < 6; i++ {
			d.oneOp()
		}
		if err := d.w.Compact(); err != nil {
			d.t.Fatal(err)
		}
		d.record()
	}
	d.openFollower()
	d.follKills++
}

// tearTail truncates n bytes off the newest non-empty mirrored segment,
// never into its header.
func (d *drill) tearTail(n int64) {
	d.t.Helper()
	segs, err := filepath.Glob(filepath.Join(d.follDir, "wal-*.log"))
	if err != nil {
		d.t.Fatal(err)
	}
	sort.Strings(segs)
	for i := len(segs) - 1; i >= 0; i-- {
		st, err := os.Stat(segs[i])
		if err != nil {
			d.t.Fatal(err)
		}
		if st.Size() <= 16 {
			continue
		}
		if err := os.Truncate(segs[i], max(st.Size()-n, 16)); err != nil {
			d.t.Fatal(err)
		}
		return
	}
}

// restartPrimary closes the workspace, and with it the replication
// server, then reopens both on the same address. fsync-per-record
// durability means a clean close loses nothing the primary acknowledged.
func (d *drill) restartPrimary() {
	d.t.Helper()
	if err := d.w.Close(); err != nil {
		d.t.Fatal(err)
	}
	d.openPrimary()
	// Journal replay rewrites the identical spec record; record its LSN so
	// the state history stays complete.
	d.record()
	d.primKills++
}

// TestReplicationFaultDrill runs a primary and a follower under a
// policy-checked write load and, between rounds, crashes the follower
// with a torn mirrored log, restarts the primary, or lets the follower
// fall behind the compaction horizon. Every follower recovery must land
// on a committed prefix of the primary's history, every restart must
// reconverge to the primary's state hash, and the follower must keep
// enforcing read policies and refusing writes. Closing both ends must
// stop every goroutine they started.
func TestReplicationFaultDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("fault drill is slow; run without -short")
	}
	const rounds, opsPerRound = 12, 8
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			d := &drill{
				t:          t,
				rng:        rand.New(rand.NewSource(seed)),
				primaryDir: filepath.Join(dir, "primary"),
				follDir:    filepath.Join(dir, "follower"),
				states:     map[uint64]string{},
			}
			d.openPrimary()
			anon := d.w.AsPrinc(scooter.Static("Unauthenticated"))
			var err error
			if d.aliceID, err = anon.Insert("User", scooter.Doc{"name": "alice", "email": "a@x"}); err != nil {
				t.Fatal(err)
			}
			if d.bobID, err = anon.Insert("User", scooter.Doc{"name": "bob", "email": "b@x"}); err != nil {
				t.Fatal(err)
			}
			d.record()
			d.openFollower()
			d.converge()

			for round := 0; round < rounds; round++ {
				for i := 0; i < opsPerRound; i++ {
					d.oneOp()
				}
				if d.rng.Intn(3) == 0 {
					if err := d.w.Compact(); err != nil {
						t.Fatal(err)
					}
					d.record()
				}
				switch f := d.rng.Intn(10); {
				case f < 3:
					d.crashFollower(false)
				case f < 5:
					d.crashFollower(true)
				case f < 8:
					d.restartPrimary()
				default:
					d.crashFollower(false)
					d.restartPrimary()
				}
				d.converge()
				d.checkFollowerPolicies()
			}

			d.bootstraps += d.fw.ReplicationStatus().Bootstraps
			if err := d.fw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := d.w.Close(); err != nil {
				t.Fatal(err)
			}
			checkGoroutines(t, base)
			t.Logf("%d rounds, %d ops, %d follower crashes, %d primary restarts, %d bootstraps",
				rounds, d.ops, d.follKills, d.primKills, d.bootstraps)
		})
	}
}
