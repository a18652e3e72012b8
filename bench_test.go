// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Mapping to the paper:
//
//	BenchmarkFigure5_*  — §5.1 expressiveness table (corpus verification)
//	BenchmarkSec52_*    — §5.2 unsafe-migration detection
//	BenchmarkSec53_*    — §5.3 verification speed (per study, per command)
//	BenchmarkSec54_*    — §5.4 macro-benchmark (/announcements, /profile)
//	BenchmarkFigure6_*  — §5.4 micro-benchmark (create post / view friend
//	                      posts × unchecked / hand-checked / Scooter)
//
// Absolute numbers differ from the paper (its substrate is MongoDB + Z3 on
// a 2016 desktop; ours is an in-memory store + a from-scratch SMT solver);
// EXPERIMENTS.md compares shapes.
package scooter_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"scooter/examples/bibifi-web/app"
	"scooter/internal/casestudies"
	"scooter/internal/eval"
	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/orm"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/store"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// ---- Figure 5: expressiveness (corpus verifies end to end) ----

func BenchmarkFigure5_Expressiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := casestudies.Metrics()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", casestudies.FormatFigure5(rows))
		}
	}
}

// ---- §5.2: unsafe-migration detection ----

func BenchmarkSec52_UnsafeDetection(b *testing.B) {
	for _, c := range casestudies.UnsafeCases() {
		b.Run(c.Key, func(b *testing.B) {
			s := mustSchema(b, c.Spec)
			script, err := parser.ParseMigration(c.Migration)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := migrate.Verify(s, script, migrate.DefaultOptions()); err == nil {
					b.Fatal("unsafe migration accepted")
				}
			}
		})
	}
}

// ---- §5.3: verification speed ----

// BenchmarkSec53_VerifySpeed_Study times verifying each case study's full
// migration history (the paper: fastest migration 10.3ms, slowest 88.8ms).
// Parsing and type-checking setup is hoisted out of the timed loop so the
// benchmark isolates verification time, as §5.3 intends.
func BenchmarkSec53_VerifySpeed_Study(b *testing.B) {
	studies, err := casestudies.AllStudies()
	if err != nil {
		b.Fatal(err)
	}
	for _, study := range studies {
		b.Run(study.Key, func(b *testing.B) {
			scripts, err := study.ParseScripts()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := study.RunScripts(scripts, migrate.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSec53_VerifySpeed_Study_Cached is the warm-cache variant: one
// verdict cache is shared across iterations, modelling corpus replay (or a
// CI fleet re-verifying migration histories) where structurally identical
// strictness queries recur. Compare against BenchmarkSec53_VerifySpeed_Study
// for the cold/warm speedup reported in EXPERIMENTS.md.
func BenchmarkSec53_VerifySpeed_Study_Cached(b *testing.B) {
	studies, err := casestudies.AllStudies()
	if err != nil {
		b.Fatal(err)
	}
	for _, study := range studies {
		b.Run(study.Key, func(b *testing.B) {
			scripts, err := study.ParseScripts()
			if err != nil {
				b.Fatal(err)
			}
			opts := migrate.DefaultOptions()
			opts.Cache = verify.NewCache(0)
			stats := &verify.Stats{}
			opts.Stats = stats
			// Warm the cache with one untimed replay.
			if _, _, err := study.RunScripts(scripts, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := study.RunScripts(scripts, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Logf("%s: %s", study.Key, stats.Snapshot())
		})
	}
}

// BenchmarkSec53_VerifySpeed_Study_Metrics is the cached replay with the
// full observability stack attached on top of everything the Cached
// variant carries — the verify metric set in a live registry —
// so the delta against BenchmarkSec53_VerifySpeed_Study_Cached is
// attributable purely to the obs layer (EXPERIMENTS.md reports it
// against a <2% target).
func BenchmarkSec53_VerifySpeed_Study_Metrics(b *testing.B) {
	studies, err := casestudies.Studies()
	if err != nil {
		b.Fatal(err)
	}
	for _, study := range studies {
		b.Run(study.Key, func(b *testing.B) {
			scripts, err := study.ParseScripts()
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			opts := migrate.DefaultOptions()
			opts.Cache = verify.NewCache(0)
			opts.Stats = &verify.Stats{}
			opts.Metrics = obs.NewVerifyMetrics(reg)
			if _, _, err := study.RunScripts(scripts, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := study.RunScripts(scripts, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSec53_VerifySpeed_AddField times the safety check of a single
// AddField command (the paper: 7.1–12.7ms per command).
func BenchmarkSec53_VerifySpeed_AddField(b *testing.B) {
	s := mustSchema(b, chitterBenchSpec)
	script, err := parser.ParseMigration(`
User::AddField(bio : String {
  read: u -> [u] + u.followers,
  write: u -> [u]
}, u -> u.pronouns);
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Verify(s, script, migrate.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec53_VerifySpeed_AddField_Cached re-verifies the same AddField
// against a warm verdict cache; the strictness and dataflow proofs are
// answered from the cache and only lowering/fingerprinting remains.
func BenchmarkSec53_VerifySpeed_AddField_Cached(b *testing.B) {
	s := mustSchema(b, chitterBenchSpec)
	script, err := parser.ParseMigration(`
User::AddField(bio : String {
  read: u -> [u] + u.followers,
  write: u -> [u]
}, u -> u.pronouns);
`)
	if err != nil {
		b.Fatal(err)
	}
	opts := migrate.DefaultOptions()
	opts.Cache = verify.NewCache(0)
	if _, err := migrate.Verify(s, script, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Verify(s, script, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec53_VerifySpeed_UpdatePolicy times a single policy-strictness
// proof involving Find queries.
func BenchmarkSec53_VerifySpeed_UpdatePolicy(b *testing.B) {
	s := mustSchema(b, chitterBenchSpec)
	script, err := parser.ParseMigration(`
User::UpdateFieldWritePolicy(pronouns, u -> [u]);
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := migrate.Verify(s, script, migrate.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §5.4 macro-benchmark: endpoint latency over HTTP ----

// macroBench drives an endpoint with the paper's load shape (ab with 16
// concurrent connections); b.N requests total.
func macroBench(b *testing.B, path string, auth bool, enforcement bool) {
	srv, err := app.New()
	if err != nil {
		b.Fatal(err)
	}
	ids := srv.Seed(64, 10)
	srv.W.SetEnforcement(enforcement)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 16

	b.ResetTimer()
	b.SetParallelism(16)
	var n int64
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			id := ids[int(n)%len(ids)]
			n++
			mu.Unlock()
			req, _ := http.NewRequest("GET", ts.URL+path, nil)
			if auth {
				req.Header.Set("X-User-Id", fmt.Sprint(int64(id)))
			}
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("%s: status %d", path, resp.StatusCode)
			}
		}
	})
}

func BenchmarkSec54_Macro_Announcements_Enforced(b *testing.B) {
	macroBench(b, "/announcements", false, true)
}

func BenchmarkSec54_Macro_Announcements_Unenforced(b *testing.B) {
	macroBench(b, "/announcements", false, false)
}

func BenchmarkSec54_Macro_Profile_Enforced(b *testing.B) {
	macroBench(b, "/profile", true, true)
}

func BenchmarkSec54_Macro_Profile_Unenforced(b *testing.B) {
	macroBench(b, "/profile", true, false)
}

// ---- Figure 6 micro-benchmark: Chitter tasks in three configurations ----

const chitterBenchSpec = `
@static-principal
Unauthenticated

@principal
User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] }}

Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] }}
`

// chitterFixture seeds a database: nUsers users in a follow ring, each with
// peepsPerUser posts.
type chitterFixture struct {
	schema *schema.Schema
	db     *store.DB
	users  []store.ID
}

func newChitterFixture(b *testing.B, nUsers, peepsPerUser int) *chitterFixture {
	s := mustSchema(b, chitterBenchSpec)
	db := store.Open()
	users := db.Collection("User")
	peeps := db.Collection("Peep")
	ids := make([]store.ID, nUsers)
	for i := range ids {
		ids[i] = users.Insert(store.Doc{
			"name": fmt.Sprintf("user%d", i), "email": "e", "pronouns": "p",
			"isAdmin": false, "followers": []store.Value{},
		})
	}
	// Follow ring: user i is followed by i-1 and i+1.
	for i, id := range ids {
		users.Update(id, store.Doc{"followers": []store.Value{
			ids[(i+len(ids)-1)%len(ids)], ids[(i+1)%len(ids)],
		}})
	}
	for _, id := range ids {
		for p := 0; p < peepsPerUser; p++ {
			peeps.Insert(store.Doc{"author": id, "body": fmt.Sprintf("peep %d", p)})
		}
	}
	return &chitterFixture{schema: s, db: db, users: ids}
}

// BenchmarkFigure6_CreatePost_* measures creating a peep (paper: 0.313 /
// 0.334 / 0.331 ms for unchecked / hand-checked / Scooter).

func BenchmarkFigure6_CreatePost_Unchecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	peeps := fx.db.Collection("Peep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetIfLarge(b, &fx, &peeps, i)
		author := fx.users[i%len(fx.users)]
		peeps.Insert(store.Doc{"author": author, "body": "hello world"})
	}
}

// resetIfLarge rebuilds the fixture periodically (outside the timer) so the
// measured insert cost does not drift with collection size as b.N grows.
func resetIfLarge(b *testing.B, fx **chitterFixture, peeps **store.Collection, i int) {
	if i%8192 != 8191 {
		return
	}
	b.StopTimer()
	*fx = newChitterFixture(b, 64, 4)
	*peeps = (*fx).db.Collection("Peep")
	b.StartTimer()
}

func BenchmarkFigure6_CreatePost_HandChecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	peeps := fx.db.Collection("Peep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetIfLarge(b, &fx, &peeps, i)
		author := fx.users[i%len(fx.users)]
		// The manual check a careful developer writes: the principal must
		// be the author of the new peep.
		principal := author
		if principal != author {
			b.Fatal("create denied")
		}
		peeps.Insert(store.Doc{"author": author, "body": "hello world"})
	}
}

func BenchmarkFigure6_CreatePost_ScooterChecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	conn := ormOpen(fx)
	peeps := fx.db.Collection("Peep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			b.StopTimer()
			fx = newChitterFixture(b, 64, 4)
			conn = ormOpen(fx)
			peeps = fx.db.Collection("Peep")
			b.StartTimer()
		}
		author := fx.users[i%len(fx.users)]
		pr := conn.AsPrinc(eval.InstancePrincipal("User", author))
		if _, err := pr.Insert("Peep", store.Doc{"author": author, "body": "hello world"}); err != nil {
			b.Fatal(err)
		}
	}
	_ = peeps
}

// BenchmarkFigure6_ViewFriendPosts_* measures rendering the peeps of every
// user the principal follows, including the follower-guarded pronouns
// (paper: 13.8 / 14.9 / 15.2 ms).

func viewFriendIDs(fx *chitterFixture, viewer store.ID) []store.ID {
	doc, _ := fx.db.Collection("User").Get(viewer)
	set, _ := doc["followers"].([]store.Value)
	out := make([]store.ID, 0, len(set))
	for _, v := range set {
		if id, ok := v.(store.ID); ok {
			out = append(out, id)
		}
	}
	return out
}

func BenchmarkFigure6_ViewFriendPosts_Unchecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	users, peeps := fx.db.Collection("User"), fx.db.Collection("Peep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewer := fx.users[i%len(fx.users)]
		total := 0
		for _, friend := range viewFriendIDs(fx, viewer) {
			fdoc, _ := users.Get(friend)
			_ = fdoc["pronouns"]
			total += len(peeps.Find(store.Eq("author", friend)))
		}
		if total == 0 {
			b.Fatal("no posts rendered")
		}
	}
}

func BenchmarkFigure6_ViewFriendPosts_HandChecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	users, peeps := fx.db.Collection("User"), fx.db.Collection("Peep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewer := fx.users[i%len(fx.users)]
		total := 0
		for _, friend := range viewFriendIDs(fx, viewer) {
			fdoc, _ := users.Get(friend)
			// Manual pronoun check: visible to the friend themself and
			// their followers.
			visible := friend == viewer
			if !visible {
				if fs, ok := fdoc["followers"].([]store.Value); ok {
					for _, f := range fs {
						if f == viewer {
							visible = true
							break
						}
					}
				}
			}
			if visible {
				_ = fdoc["pronouns"]
			}
			total += len(peeps.Find(store.Eq("author", friend)))
		}
		if total == 0 {
			b.Fatal("no posts rendered")
		}
	}
}

func BenchmarkFigure6_ViewFriendPosts_ScooterChecked(b *testing.B) {
	fx := newChitterFixture(b, 64, 4)
	conn := ormOpen(fx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewer := fx.users[i%len(fx.users)]
		pr := conn.AsPrinc(eval.InstancePrincipal("User", viewer))
		total := 0
		for _, friend := range viewFriendIDs(fx, viewer) {
			obj, err := pr.FindByID("User", friend)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = obj.Get("pronouns")
			posts, err := pr.Find("Peep", store.Eq("author", friend))
			if err != nil {
				b.Fatal(err)
			}
			total += len(posts)
		}
		if total == 0 {
			b.Fatal("no posts rendered")
		}
	}
}

// ---- helpers ----

func ormOpen(fx *chitterFixture) *orm.Conn { return orm.Open(fx.schema, fx.db) }

func mustSchema(b *testing.B, spec string) *schema.Schema {
	b.Helper()
	f, err := parser.ParsePolicyFile(spec)
	if err != nil {
		b.Fatal(err)
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		b.Fatal(err)
	}
	return s
}

// ---- Profile reads through the policy-enforcing ORM (§5.4) ----

// BenchmarkProfileReads reads another user's profile through the ORM
// (document fetch, every field's read policy, object assembly). The viewer
// follows the target (ring neighbour), so follower and Find policies all
// run their full membership paths.
func BenchmarkProfileReads(b *testing.B) {
	fx := newChitterFixture(b, 64, 0)
	conn := ormOpen(fx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewer := fx.users[i%len(fx.users)]
		pr := conn.AsPrinc(eval.InstancePrincipal("User", viewer))
		obj, err := pr.FindByID("User", fx.users[(i+1)%len(fx.users)])
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := obj.Get("name"); !ok {
			b.Fatal("public name missing")
		}
	}
}

// ---- §5.3 persistent verdict cache: corpus replay cold vs warm ----

// BenchmarkVerdictDBReplay_Cold replays each case study against a fresh
// verdict store every iteration: every strictness query solves, and every
// verdict is appended to disk. This is the first `sidecar -verdict-db` run.
func BenchmarkVerdictDBReplay_Cold(b *testing.B) {
	studies, err := casestudies.Studies()
	if err != nil {
		b.Fatal(err)
	}
	for _, study := range studies {
		b.Run(study.Key, func(b *testing.B) {
			scripts, err := study.ParseScripts()
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vdb, err := verify.OpenVerdictDB(filepath.Join(dir, fmt.Sprintf("v%d.db", i)))
				if err != nil {
					b.Fatal(err)
				}
				opts := migrate.DefaultOptions()
				opts.Cache = vdb
				if _, _, err := study.RunScripts(scripts, opts); err != nil {
					b.Fatal(err)
				}
				if err := vdb.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerdictDBReplay_Warm replays against a store seeded by one
// untimed pass: every iteration reopens the same file and must answer all
// strictness queries from disk without solving — the second
// `sidecar -verdict-db` run, or a colleague replaying a shipped store.
func BenchmarkVerdictDBReplay_Warm(b *testing.B) {
	studies, err := casestudies.Studies()
	if err != nil {
		b.Fatal(err)
	}
	for _, study := range studies {
		b.Run(study.Key, func(b *testing.B) {
			scripts, err := study.ParseScripts()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "verdicts.db")
			vdb, err := verify.OpenVerdictDB(path)
			if err != nil {
				b.Fatal(err)
			}
			opts := migrate.DefaultOptions()
			opts.Cache = vdb
			if _, _, err := study.RunScripts(scripts, opts); err != nil {
				b.Fatal(err)
			}
			if err := vdb.Close(); err != nil {
				b.Fatal(err)
			}
			stats := &verify.Stats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vdb, err := verify.OpenVerdictDB(path)
				if err != nil {
					b.Fatal(err)
				}
				opts := migrate.DefaultOptions()
				opts.Cache = vdb
				opts.Stats = stats
				if _, _, err := study.RunScripts(scripts, opts); err != nil {
					b.Fatal(err)
				}
				if err := vdb.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			snap := stats.Snapshot()
			if snap.QueriesSolved != 0 {
				b.Fatalf("warm replay solved %d queries; want all from disk", snap.QueriesSolved)
			}
			b.Logf("%s: %d persist hits, %d misses", study.Key, snap.PersistHits, snap.PersistMisses)
		})
	}
}
