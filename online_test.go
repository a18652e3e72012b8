package scooter_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scooter"
	"scooter/internal/store/wal"
)

// The online-migration tests drive the full stack: Workspace wiring
// ($spec fence, lazy-shim registration), the ORM dual-read window, and the
// batched, watermarked backfill in migrate. The acceptance bar throughout
// is byte-identical convergence with the stop-the-world result: online
// with interleaved traffic must equal migrate-first-then-traffic exactly,
// `$migrations` and `$spec` included.

const onlineBaseScript = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: public,
  name: String { read: public, write: public },
  age: I64 { read: public, write: public },
});
`

const onlineBioScript = `
User::AddField(bio : String { read: public, write: public }, u -> "I'm " + u.name);
`

func onlineFixedClock() time.Time { return time.Unix(1700000000, 0) }

// onlineTestOpts skips verification (journal/backfill mechanics are under
// test, not proofs) and pins the clock so both runs journal identical
// bytes.
func onlineTestOpts() scooter.Options {
	o := scooter.DefaultOptions()
	o.SkipVerification = true
	o.Clock = onlineFixedClock
	return o
}

// seedOnline bootstraps the model and inserts n deterministic users,
// returning their ids in insert order.
func seedOnline(t *testing.T, w *scooter.Workspace, n int) []scooter.ID {
	t.Helper()
	if _, err := w.MigrateNamedOpts("000_base", onlineBaseScript, onlineTestOpts()); err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	ids := make([]scooter.ID, n)
	for i := range ids {
		id, err := anon.Insert("User", scooter.Doc{"name": fmt.Sprintf("u%03d", i), "age": int64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestOnlineMigrationConvergesWithTraffic interleaves foreground ORM
// traffic at every batch boundary of an online backfill — updates behind
// and ahead of the watermark, an old-shape insert served by the lazy
// window, a delete of a not-yet-swept document — and asserts the final
// database hash equals the stop-the-world reference (migrate first, then
// the same traffic).
func TestOnlineMigrationConvergesWithTraffic(t *testing.T) {
	const nUsers = 22

	// Each traffic group runs at one batch boundary of the online run, and
	// after the migration in the reference run. `online` selects the
	// old-shape insert variant: during the window the bio may be omitted
	// (the lazy shim derives it); after a completed migration the reference
	// must spell out the value the shim would have derived.
	traffic := func(t *testing.T, w *scooter.Workspace, ids []scooter.ID, group int, online bool) {
		t.Helper()
		anon := w.AsPrinc(scooter.Static("Unauthenticated"))
		var err error
		switch group {
		case 0:
			// Ahead of the watermark: the lazy-write shim must derive bio
			// from the pre-update name and persist it with this write.
			err = anon.Update("User", ids[20], scooter.Doc{"name": "renamed"})
		case 1:
			err = anon.Update("User", ids[1], scooter.Doc{"age": int64(99)})
		case 2:
			doc := scooter.Doc{"name": "fresh", "age": int64(5)}
			if !online {
				doc["bio"] = "I'm fresh"
			}
			_, err = anon.Insert("User", doc)
		case 3:
			err = anon.Update("User", ids[3], scooter.Doc{"age": int64(77)})
		case 4:
			err = anon.Delete("User", ids[18])
		case 5:
			doc := scooter.Doc{"name": "late", "age": int64(6), "bio": "custom bio"}
			_, err = anon.Insert("User", doc)
		}
		if err != nil {
			t.Fatalf("traffic group %d: %v", group, err)
		}
	}
	const nGroups = 6

	// Reference: stop-the-world migration, then the traffic.
	ref := scooter.NewWorkspace()
	refIDs := seedOnline(t, ref, nUsers)
	if _, err := ref.MigrateNamedOpts("001_bio", onlineBioScript, onlineTestOpts()); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < nGroups; g++ {
		traffic(t, ref, refIDs, g, false)
	}
	_, wantHash, err := ref.StateHash()
	if err != nil {
		t.Fatal(err)
	}

	// Online: the same traffic fires between batches, against a collection
	// the backfill is still sweeping.
	w := scooter.NewWorkspace()
	ids := seedOnline(t, w, nUsers)
	opts := onlineTestOpts()
	opts.Online = true
	opts.BatchSize = 4
	group := 0
	opts.OnBatch = func(model, field string, watermark scooter.ID, remaining int) error {
		if group < nGroups {
			traffic(t, w, ids, group, true)
			// A read mid-window: the lazy shim serves bio for a document
			// the sweep has not reached, judged by the post-fence policies.
			last, err := w.AsPrinc(scooter.Static("Unauthenticated")).FindByID("User", ids[nUsers-1])
			if err != nil {
				t.Fatalf("mid-window read: %v", err)
			}
			if last == nil {
				t.Fatalf("mid-window read: doc %v missing", ids[nUsers-1])
			}
			if watermark < ids[nUsers-1] {
				if bio, ok := last.Get("bio"); !ok || bio != fmt.Sprintf("I'm u%03d", nUsers-1) {
					t.Fatalf("mid-window lazy read: bio=%v ok=%v", bio, ok)
				}
			}
		}
		group++
		return nil
	}
	if _, err := w.MigrateNamedOpts("001_bio", onlineBioScript, opts); err != nil {
		t.Fatal(err)
	}
	if group < nGroups {
		t.Fatalf("only %d batch boundaries fired, traffic incomplete", group)
	}
	_, gotHash, err := w.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != wantHash {
		t.Fatalf("online state diverges from stop-the-world reference:\nonline %s\nref    %s\nonline spec:\n%s\nref spec:\n%s",
			gotHash, wantHash, w.SpecText(), ref.SpecText())
	}

	// The journal of the online run is indistinguishable from the
	// reference's (Done, watermark reset), which the hash already proved —
	// spot-check the typed view too.
	entries := w.AppliedMigrations()
	if len(entries) != 2 || !entries[1].Done || entries[1].Watermark != 0 {
		t.Fatalf("journal after online run: %+v", entries)
	}
}

// TestOnlineLazyShimRace races foreground readers and writers against the
// lazy-migration shim while the backfill sweeps, on an in-memory and on a
// durable workspace: run under -race it proves the connection's
// schema/policy/lazy state swaps are safe, and it asserts reads never fail
// and the collection converges to fully backfilled.
func TestOnlineLazyShimRace(t *testing.T) {
	t.Run("memory", func(t *testing.T) { lazyShimRace(t, scooter.NewWorkspace()) })
	t.Run("durable", func(t *testing.T) {
		w, err := scooter.OpenDurable(t.TempDir(), scooter.DurabilityOptions{CompactAfterBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		lazyShimRace(t, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func lazyShimRace(t *testing.T, w *scooter.Workspace) {
	const nUsers = 300
	ids := seedOnline(t, w, nUsers)

	opts := onlineTestOpts()
	opts.Online = true
	opts.BatchSize = 8
	opts.Rate = 20000 // pace the sweep so traffic overlaps the window

	done := make(chan error, 1)
	go func() {
		_, err := w.MigrateNamedOpts("001_bio", onlineBioScript, opts)
		done <- err
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			anon := w.AsPrinc(scooter.Static("Unauthenticated"))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj, err := anon.FindByID("User", ids[(i*7+r)%nUsers])
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if obj == nil {
					errs <- fmt.Errorf("reader %d: doc vanished", r)
					return
				}
				if bio, ok := obj.Get("bio"); ok {
					if s, _ := bio.(string); len(s) < len("I'm ") || s[:4] != "I'm " {
						errs <- fmt.Errorf("reader %d: malformed lazy bio %q", r, s)
						return
					}
				}
				// A filtered Find exercises the lazy-field filter partition.
				if i%13 == 0 {
					if _, err := anon.Find("User", scooter.Eq("bio", "I'm u005")); err != nil {
						errs <- fmt.Errorf("reader %d find: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			anon := w.AsPrinc(scooter.Static("Unauthenticated"))
			for i := wr; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i*11)%nUsers]
				if err := anon.Update("User", id, scooter.Doc{"age": int64(i % 100)}); err != nil {
					errs <- fmt.Errorf("writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}

	if err := <-done; err != nil {
		t.Fatalf("online migration: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Converged: every document carries its backfilled (or lazily written)
	// bio, visible through the post-migration policies.
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	objs, err := anon.Find("User")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != nUsers {
		t.Fatalf("users after migration: %d", len(objs))
	}
	for _, obj := range objs {
		if bio, ok := obj.Get("bio"); !ok || bio == nil {
			t.Fatalf("user %v missing bio after online migration", obj.ID)
		}
	}
}

// onlineTwoFieldScript adds two fields: during the first field's sweep the
// second is already declared (the fence published the whole script's
// spec) but its dual-read window is not open yet.
const onlineTwoFieldScript = `
User::AddField(bio : String { read: public, write: public }, u -> "I'm " + u.name);
User::AddField(motto : String { read: public, write: public }, u -> "motto " + u.name);
`

// TestOnlineReadBeforeLazyWindow reads through the ORM during the first
// field's sweep of a two-field online migration: the schema has flipped to
// declare the second field, but its window has not opened. No document
// carries that field yet and nothing can derive it, so it must be absent
// from every Object — not readable as a nil value — and a filter on it
// must match nothing.
func TestOnlineReadBeforeLazyWindow(t *testing.T) {
	w := scooter.NewWorkspace()
	ids := seedOnline(t, w, 4)
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))

	opts := onlineTestOpts()
	opts.Online = true
	opts.BatchSize = 2
	checked := false
	opts.OnBatch = func(model, field string, watermark scooter.ID, remaining int) error {
		if field != "bio" {
			return nil
		}
		if !strings.Contains(w.SpecText(), "motto") {
			return fmt.Errorf("first sweep ran before the schema flip")
		}
		checked = true
		for _, id := range ids {
			obj, err := anon.FindByID("User", id)
			if err != nil || obj == nil {
				return fmt.Errorf("FindByID during the bio sweep: obj=%v err=%v", obj, err)
			}
			if v, ok := obj.Get("motto"); ok {
				return fmt.Errorf("motto readable before any document carries it: %#v", v)
			}
			if _, ok := obj.Fields()["motto"]; ok {
				return fmt.Errorf("Fields() lists motto before any document carries it")
			}
		}
		objs, err := anon.Find("User", scooter.Eq("motto", "motto u000"))
		if err != nil || len(objs) != 0 {
			return fmt.Errorf("Find on motto during the bio sweep: %d objects, err=%v", len(objs), err)
		}
		return nil
	}
	if _, err := w.MigrateNamedOpts("001_bio_motto", onlineTwoFieldScript, opts); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the bio sweep never reached a batch boundary")
	}
	obj, err := anon.FindByID("User", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if bio, _ := obj.Get("bio"); bio != "I'm u000" {
		t.Fatalf("bio after the backfill: %#v", bio)
	}
	if motto, _ := obj.Get("motto"); motto != "motto u000" {
		t.Fatalf("motto after the backfill: %#v", motto)
	}
}

// TestOnlineFollowerSpecFence is the regression for the follower spec-lag
// window: the primary must fence `$spec` at the START of an online
// migration, so a follower's policy verdicts are well-defined at every
// batch boundary of the drain — post-migration spec, documents showing the
// new field exactly up to the replicated watermark — instead of enforcing
// the pre-migration spec against mid-migration data for the whole
// backfill.
func TestOnlineFollowerSpecFence(t *testing.T) {
	w, err := scooter.OpenDurable(t.TempDir(), scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const nUsers = 12
	ids := seedOnline(t, w, nUsers)

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
	if fields := fw.SpecText(); containsBio(fields) {
		t.Fatalf("follower spec already has bio before the migration:\n%s", fields)
	}

	opts := onlineTestOpts()
	opts.Online = true
	opts.BatchSize = 4
	boundaries := 0
	opts.OnBatch = func(model, field string, watermark scooter.ID, remaining int) error {
		boundaries++
		// The primary pauses here, so the follower can reach — but not
		// pass — the current durable position.
		if err := fw.WaitForLSN(w.DurableLSN(), 10*time.Second); err != nil {
			return err
		}
		// Fence: the post-migration spec replicated BEFORE the first
		// backfill batch, so mid-window verdicts use the new policies.
		if !containsBio(fw.SpecText()) {
			t.Errorf("boundary %d: follower still enforces the pre-migration spec", boundaries)
		}
		// Verdicts at this LSN: the new field carries its value exactly up
		// to the replicated watermark. Past it the follower — which serves
		// the replicated bytes as-is, with no lazy shim — reports the field
		// readable under the fenced (post-migration) policies but still
		// nil: well-defined, never a stale or partial value.
		anon := fw.AsPrinc(scooter.Static("Unauthenticated"))
		for i, id := range ids {
			obj, err := anon.FindByID("User", id)
			if err != nil || obj == nil {
				t.Errorf("boundary %d: follower read %v: obj=%v err=%v", boundaries, id, obj, err)
				continue
			}
			bio, visible := obj.Get("bio")
			if id <= watermark {
				if !visible || bio != fmt.Sprintf("I'm u%03d", i) {
					t.Errorf("boundary %d: swept doc %v on follower: bio=%v visible=%v", boundaries, id, bio, visible)
				}
			} else if visible && bio != nil {
				t.Errorf("boundary %d: unswept doc %v already shows bio %v on follower", boundaries, id, bio)
			}
		}
		return nil
	}
	if _, err := w.MigrateNamedOpts("001_bio", onlineBioScript, opts); err != nil {
		t.Fatal(err)
	}
	if boundaries < 3 {
		t.Fatalf("only %d batch boundaries observed", boundaries)
	}

	// Drained: follower converges byte-identically to the primary.
	if err := fw.WaitForLSN(w.DurableLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	plsn, phash, err := w.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	flsn, fhash, err := fw.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if flsn != plsn || fhash != phash {
		t.Fatalf("follower state (lsn %d, %s) != primary (lsn %d, %s)", flsn, fhash, plsn, phash)
	}
}

func containsBio(spec string) bool {
	for i := 0; i+3 <= len(spec); i++ {
		if spec[i:i+3] == "bio" {
			return true
		}
	}
	return false
}

// killOp is one foreground operation of the online kill sweep. Repeating
// the whole list in order after recovery must be idempotent: inserts are
// guarded by name, deletes by existence, updates overwrite.
type killOp struct {
	kind string // "insert", "age", "name", "delete"
	name string // inserted user's name (kind "insert")
	idx  int    // seed index targeted (other kinds)
	val  int64  // new age (kind "age")
}

// killTraffic is the kill sweep's foreground workload, two ops per batch
// boundary. Inserts spell out bio explicitly — a writer that already
// speaks the new shape — so replaying one after the window closed produces
// the same document the live run did.
var killTraffic = [][]killOp{
	{{kind: "age", idx: 1, val: 91}, {kind: "insert", name: "fg0"}},
	{{kind: "name", idx: 9}, {kind: "age", idx: 2, val: 92}},
	{{kind: "insert", name: "fg1"}, {kind: "delete", idx: 12}},
	{{kind: "age", idx: 3, val: 93}, {kind: "insert", name: "fg2"}},
	{{kind: "name", idx: 5}, {kind: "age", idx: 1, val: 94}},
}

func applyKillOp(pr *scooter.Princ, o killOp, ids []scooter.ID) error {
	switch o.kind {
	case "insert":
		// Guard: the insert may already be durable from before the crash.
		got, err := pr.Find("User", scooter.Eq("name", o.name))
		if err != nil || len(got) > 0 {
			return err
		}
		_, err = pr.Insert("User", scooter.Doc{"name": o.name, "age": int64(50), "bio": "I'm " + o.name})
		return err
	case "age":
		return pr.Update("User", ids[o.idx], scooter.Doc{"age": o.val})
	case "name":
		return pr.Update("User", ids[o.idx], scooter.Doc{"name": fmt.Sprintf("renamed%d", o.idx)})
	case "delete":
		obj, err := pr.FindByID("User", ids[o.idx])
		if err != nil || obj == nil {
			return err
		}
		return pr.Delete("User", ids[o.idx])
	}
	return fmt.Errorf("unknown op %q", o.kind)
}

// TestOnlineKillSweep kills a durable online migration at every byte of
// its window, with foreground traffic at each batch boundary. Each trial
// truncates the log at one offset, recovers, lets the migration resume,
// repeats the traffic, and requires the database — `$migrations` and
// `$spec` included — to hash byte-identically to the uninterrupted run.
func TestOnlineKillSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("kill sweep is slow; run without -short")
	}
	const nUsers = 16
	durable := scooter.DurabilityOptions{CompactAfterBytes: -1}
	onlineOpts := onlineTestOpts()
	onlineOpts.Online = true
	onlineOpts.BatchSize = 4

	// Uninterrupted run: bootstrap and seed, note where the migration
	// window starts in the segment, then migrate with traffic at every
	// batch boundary. Groups the batch count does not reach run after the
	// window, here and in every replay.
	pristine := t.TempDir()
	w, err := scooter.OpenDurable(pristine, durable)
	if err != nil {
		t.Fatal(err)
	}
	ids := seedOnline(t, w, nUsers)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(pristine, wal.SegmentName(1))
	boot, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	next := 0
	runGroup := func() error {
		for _, o := range killTraffic[next] {
			if err := applyKillOp(anon, o, ids); err != nil {
				return fmt.Errorf("group %d: %w", next, err)
			}
		}
		next++
		return nil
	}
	opts := onlineOpts
	opts.OnBatch = func(string, string, scooter.ID, int) error {
		if next < len(killTraffic) {
			return runGroup()
		}
		return nil
	}
	if _, err := w.MigrateNamedOpts("001_bio", onlineBioScript, opts); err != nil {
		t.Fatal(err)
	}
	for next < len(killTraffic) {
		if err := runGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_, want, err := w.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	trial := filepath.Join(t.TempDir(), "trial")
	kills := 0
	for off := int(boot.Size()); off <= len(full); off++ {
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(trial, os.DirFS(pristine)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trial, wal.SegmentName(1)), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := scooter.OpenDurable(trial, durable)
		if err != nil {
			t.Fatalf("kill@%d: recovery failed: %v", off, err)
		}
		if _, err := w.MigrateNamedOpts("000_base", onlineBaseScript, onlineTestOpts()); err != nil {
			t.Fatalf("kill@%d: bootstrap replay: %v", off, err)
		}
		if _, err := w.MigrateNamedOpts("001_bio", onlineBioScript, onlineOpts); err != nil {
			t.Fatalf("kill@%d: resume: %v", off, err)
		}
		anon := w.AsPrinc(scooter.Static("Unauthenticated"))
		for g, group := range killTraffic {
			for _, o := range group {
				if err := applyKillOp(anon, o, ids); err != nil {
					t.Fatalf("kill@%d: repeat group %d: %v", off, g, err)
				}
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		_, got, err := w.StateHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("kill@%d: state after crash and resume diverges from the uninterrupted run (%s != %s)", off, got, want)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		kills++
	}
	t.Logf("%d kill points converged byte-identically", kills)
}

// TestLiveSchemaReadsDuringMigrations reads the live schema through every
// Workspace accessor while a stop-the-world and an online migration flip
// it. Under -race the reads must not race the flips: the ORM connection is
// the one holder of the live schema.
func TestLiveSchemaReadsDuringMigrations(t *testing.T) {
	w := scooter.NewWorkspace()
	seedOnline(t, w, 8)
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			if !strings.Contains(w.SpecText(), "User") || len(w.Models()) != 1 || len(w.StaticPrincipals()) != 1 {
				readerDone <- fmt.Errorf("torn schema read:\n%s", w.SpecText())
				return
			}
			if _, err := w.Verify(`User::UpdateFieldWritePolicy(age, none);`); err != nil {
				readerDone <- err
				return
			}
		}
	}()
	if _, err := w.MigrateNamed("001_bio", onlineBioScript); err != nil {
		t.Fatal(err)
	}
	opts := onlineTestOpts()
	opts.Online = true
	opts.BatchSize = 2
	const motto = `User::AddField(motto : String { read: public, write: public }, u -> "motto " + u.name);`
	if _, err := w.MigrateNamedOpts("002_motto", motto, opts); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if spec := w.SpecText(); !strings.Contains(spec, "bio") || !strings.Contains(spec, "motto") {
		t.Fatalf("spec after both migrations:\n%s", spec)
	}
}
