package scooter_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scooter"
	"scooter/internal/schema"
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
// lazy-migration shim while the backfill sweeps: run under -race it proves
// the connection's schema/policy/lazy state swaps are safe, and it asserts
// reads never fail and the collection converges to fully backfilled.
func TestOnlineLazyShimRace(t *testing.T) {
	const nUsers = 300
	w := scooter.NewWorkspace()
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
		if _, ok := obj.Get("bio"); !ok {
			t.Fatalf("user %v missing bio after online migration", obj.ID)
		}
	}
}

// TestOnlineReadBeforeLazyWindow reads through the ORM from inside the
// `$spec` fence, after the schema has flipped to declare the new field but
// before the dual-read window opens. No document carries the field yet and
// nothing can derive it, so the field must be absent from every Object —
// not readable as a nil value — and a filter on it must match nothing.
func TestOnlineReadBeforeLazyWindow(t *testing.T) {
	w := scooter.NewWorkspace()
	ids := seedOnline(t, w, 4)
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))

	opts := onlineTestOpts()
	opts.Online = true
	checked := false
	opts.OnPlanned = func(after *schema.Schema) error {
		if after.Model("User").Field("bio") == nil || !strings.Contains(w.SpecText(), "bio") {
			return fmt.Errorf("OnPlanned ran before the schema flip")
		}
		checked = true
		obj, err := anon.FindByID("User", ids[0])
		if err != nil || obj == nil {
			return fmt.Errorf("FindByID in the fence: obj=%v err=%v", obj, err)
		}
		if v, ok := obj.Get("bio"); ok {
			return fmt.Errorf("bio readable before any document carries it: %#v", v)
		}
		if _, ok := obj.Fields()["bio"]; ok {
			return fmt.Errorf("Fields() lists bio before any document carries it")
		}
		objs, err := anon.Find("User", scooter.Eq("bio", "I'm u000"))
		if err != nil || len(objs) != 0 {
			return fmt.Errorf("Find on bio in the fence: %d objects, err=%v", len(objs), err)
		}
		return nil
	}
	if _, err := w.MigrateNamedOpts("001_bio", onlineBioScript, opts); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("OnPlanned hook never ran")
	}
	obj, err := anon.FindByID("User", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if bio, _ := obj.Get("bio"); bio != "I'm u000" {
		t.Fatalf("bio after the backfill: %#v", bio)
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
