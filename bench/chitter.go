package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"scooter"
	"scooter/internal/obs"
)

// chitterSpec is the Figure-6 Chitter application.
const chitterSpec = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: u -> [u] + User::Find({isAdmin: true}) },
  email: String { read: u -> [u] + User::Find({isAdmin: true}), write: u -> [u] },
  pronouns: String { read: u -> [u] + u.followers, write: u -> [u] },
  isAdmin: Bool { read: u -> [u] + User::Find({isAdmin: true}), write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) { read: u -> [u] + u.followers, write: u -> [u] },
});
CreateModel(Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] },
});
`

// chitterGraph is the generated social graph: the inputs the workload
// writes and the oracle its reads are checked against.
type chitterGraph struct {
	followees [][]int // by user index
	followers [][]int
	admin     []bool
	// popular draws a user by Zipf popularity.
	popular func() int
}

func newChitterGraph(r *rand.Rand, users, follows int) *chitterGraph {
	g := &chitterGraph{
		followees: make([][]int, users),
		followers: make([][]int, users),
		admin:     make([]bool, users),
	}
	rank := r.Perm(users)
	z := rand.NewZipf(r, 1.1, 10, uint64(users-1))
	g.popular = func() int { return rank[z.Uint64()] }
	for u := range g.followees {
		for len(g.followees[u]) < min(follows, users-1) {
			f := g.popular()
			if f != u && !g.follows(u, f) {
				g.followees[u] = append(g.followees[u], f)
				g.followers[f] = append(g.followers[f], u)
			}
		}
		g.admin[u] = r.Float64() < 0.01
	}
	return g
}

// follows reports whether u follows f.
func (g *chitterGraph) follows(u, f int) bool {
	for _, x := range g.followees[u] {
		if x == f {
			return true
		}
	}
	return false
}

// chitterOp is one generated operation: a viewer renders the posts of
// everyone they follow plus one suggested profile, or posts a peep,
// forging another user as its author when forge >= 0.
type chitterOp struct {
	create  bool
	viewer  int
	suggest int
	forge   int
}

// chitter is a set-up Chitter deployment.
type chitter struct {
	w        *scooter.Workspace
	g        *chitterGraph
	base     scooter.ID // user i has id base+i
	peeps    int
	recovery time.Duration
	ops      []chitterOp

	// views and writes are the open loop's operation latencies from when
	// each was due; findByID, find and insert time single ORM calls.
	views, writes          lat
	findByID, find, insert lat
	reads                  atomic.Int64
	userBytes              atomic.Int64
}

func (c *chitter) id(u int) scooter.ID { return c.base + scooter.ID(u) }

// openChitter seeds a Chitter database in dir under relaxed fsync, then
// reopens it with every acknowledged write fsynced, as a restarted server
// would.
func openChitter(e *env, dir string, r *rand.Rand) (*chitter, error) {
	sz := e.sz
	c := &chitter{g: newChitterGraph(r, sz.chitterUsers, sz.chitterFollows), peeps: sz.chitterPeeps}
	w, err := scooter.OpenDurable(dir, scooter.DurabilityOptions{SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	if _, err := w.MigrateNamed("001_chitter", chitterSpec); err != nil {
		w.Close()
		return nil, err
	}
	for u := range c.g.followees {
		id := w.InsertRaw("User", userDoc(u, c.g.admin[u]))
		if u == 0 {
			c.base = id
		} else if id != c.id(u) {
			w.Close()
			return nil, fmt.Errorf("user %d got id %v, want %v", u, id, c.id(u))
		}
	}
	for u, fs := range c.g.followers {
		followers := make([]scooter.Value, len(fs))
		for i, f := range fs {
			followers[i] = c.id(f)
		}
		if err := w.AsPrinc(scooter.Instance("User", c.id(u))).Update("User", c.id(u), scooter.Doc{"followers": followers}); err != nil {
			w.Close()
			return nil, err
		}
	}
	for u := range c.g.followees {
		for k := 0; k < c.peeps; k++ {
			w.InsertRaw("Peep", scooter.Doc{"author": c.id(u), "body": fmt.Sprintf("peep %d of user%d", k, u)})
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	if c.w, err = scooter.OpenDurable(dir, scooter.DurabilityOptions{SyncEvery: 1}); err != nil {
		return nil, err
	}
	if _, err := c.w.MigrateNamed("001_chitter", chitterSpec); err != nil {
		c.w.Close()
		return nil, err
	}
	c.recovery = time.Since(start)
	c.w.EnsureIndex("Peep", "author")
	c.w.EnsureIndex("User", "isAdmin")

	// Operations are drawn once, so they depend on the seed alone and not
	// on how the workers interleave. The closed loop continues where the
	// open loop stops and wraps around.
	c.ops = make([]chitterOp, 1<<16)
	for i := range c.ops {
		o := chitterOp{viewer: r.Intn(sz.chitterUsers), suggest: c.g.popular(), forge: -1}
		if o.create = r.Float64() < 0.1; o.create && r.Float64() < 0.01 {
			o.forge = (o.viewer + 1 + r.Intn(sz.chitterUsers-1)) % sz.chitterUsers
		}
		c.ops[i] = o
	}
	return c, nil
}

func userDoc(u int, admin bool) scooter.Doc {
	return scooter.Doc{
		"name":      fmt.Sprintf("user%d", u),
		"email":     fmt.Sprintf("user%d@example.com", u),
		"pronouns":  "they/them",
		"isAdmin":   admin,
		"followers": []scooter.Value{},
	}
}

// view renders the posts of everyone o.viewer follows and one suggested
// profile, returning the objects read for checking.
func (c *chitter) view(root *active, o chitterOp) (profiles []*scooter.Object, posts [][]*scooter.Object, err error) {
	pr := c.w.AsPrinc(scooter.Instance("User", c.id(o.viewer)))
	for _, f := range c.g.followees[o.viewer] {
		p, err := c.timedFindByID(root, pr, c.id(f))
		if err != nil {
			return nil, nil, err
		}
		sp := root.child("orm")
		start := time.Now()
		ps, err := pr.Find("Peep", scooter.Eq("author", c.id(f)))
		c.find.add(time.Since(start))
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		profiles, posts = append(profiles, p), append(posts, ps)
	}
	p, err := c.timedFindByID(root, pr, c.id(o.suggest))
	if err != nil {
		return nil, nil, err
	}
	c.reads.Add(int64(2*len(posts) + 1))
	return append(profiles, p), posts, nil
}

func (c *chitter) timedFindByID(root *active, pr *scooter.Princ, id scooter.ID) (*scooter.Object, error) {
	sp := root.child("orm")
	start := time.Now()
	obj, err := pr.FindByID("User", id)
	c.findByID.add(time.Since(start))
	sp.end()
	return obj, err
}

// checkView checks a view against the generated graph: pronouns and
// followers are visible exactly to the user and their followers, email
// and isAdmin to the user and admins, and every followee's posts are
// there.
func (c *chitter) checkView(o chitterOp, profiles []*scooter.Object, posts [][]*scooter.Object) error {
	targets := append(append([]int(nil), c.g.followees[o.viewer]...), o.suggest)
	for i, p := range profiles {
		u := targets[i]
		if p == nil {
			return fmt.Errorf("user%d missing", u)
		}
		if name, _ := p.Get("name"); name != fmt.Sprintf("user%d", u) {
			return fmt.Errorf("user%d has name %v", u, name)
		}
		self := u == o.viewer
		for field, want := range map[string]bool{
			"pronouns":  self || c.g.follows(o.viewer, u),
			"followers": self || c.g.follows(o.viewer, u),
			"email":     self || c.g.admin[o.viewer],
			"isAdmin":   self || c.g.admin[o.viewer],
		} {
			if _, got := p.Get(field); got != want {
				return fmt.Errorf("user%d viewing user%d: %s visible=%t, want %t", o.viewer, u, field, got, want)
			}
		}
	}
	for i, ps := range posts {
		f := targets[i]
		if len(ps) < c.peeps {
			return fmt.Errorf("user%d has %d peeps, want at least %d", f, len(ps), c.peeps)
		}
		for _, p := range ps {
			if a, _ := p.Get("author"); a != c.id(f) {
				return fmt.Errorf("peep %v of user%d has author %v", p.ID, f, a)
			}
		}
	}
	return nil
}

// create posts a peep as o.viewer. A forged author must be denied with a
// PolicyError; a real post must read back. With timed set, an acknowledged
// post's latency from due is recorded among the writes.
func (c *chitter) create(root *active, o chitterOp, i int, due time.Time, timed bool) error {
	author := o.viewer
	if o.forge >= 0 {
		author = o.forge
	}
	body := fmt.Sprintf("post %d by user%d", i, o.viewer)
	pr := c.w.AsPrinc(scooter.Instance("User", c.id(o.viewer)))
	sp := root.child("orm")
	start := time.Now()
	id, err := pr.Insert("Peep", scooter.Doc{"author": c.id(author), "body": body})
	end := time.Now()
	c.insert.add(end.Sub(start))
	sp.end()
	if timed && err == nil {
		c.writes.add(end.Sub(due))
	}
	if o.forge >= 0 {
		var perr *scooter.PolicyError
		if !errors.As(err, &perr) {
			return fmt.Errorf("user%d posting as user%d: got %v, want a policy error", o.viewer, author, err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	c.userBytes.Add(int64(len(body)) + 8)
	obj, err := pr.FindByID("Peep", id)
	if err != nil {
		return err
	}
	if obj == nil {
		return fmt.Errorf("peep %v missing after insert", id)
	}
	if got, _ := obj.Get("body"); got != body {
		return fmt.Errorf("peep %v reads back %v, want %q", id, got, body)
	}
	return nil
}

// do runs operation i. With timed set, it records the operation's latency
// from due among the views or the writes.
func (c *chitter) do(e *env, tr *tracer, i int, due time.Time, timed bool) {
	o := c.ops[i%len(c.ops)]
	e.rep.attempt(1)
	root := tr.root("bench", int64(i+1))
	if o.create {
		err := c.create(root, o, i, due, timed)
		root.end()
		if err != nil {
			e.rep.fail("op %d: %v", i, err)
		}
		return
	}
	profiles, posts, err := c.view(root, o)
	if timed {
		c.views.add(time.Since(due))
	}
	root.end()
	if err == nil {
		err = c.checkView(o, profiles, posts)
	}
	if err != nil {
		e.rep.fail("op %d: %v", i, err)
	}
}

// runChitter is the Figure-6 application under steady traffic on a
// durable workspace that fsyncs every acknowledged write: 90% of
// operations render a user's feed (FindByID and Find per followee, plus a
// suggested profile), 10% post a peep, 1% of those with a forged author.
// An open loop at a fixed rate measures latency for half the window; a
// closed loop with two clients then measures capacity.
func runChitter(e *env) error {
	r := rand.New(rand.NewSource(e.seed))
	c, err := setup(e, func(i int) (*chitter, error) {
		c, err := openChitter(e, filepath.Join(e.dir, fmt.Sprintf("chitter-%d", i)), r)
		if err != nil {
			return nil, err
		}
		for j := 0; j < 200; j++ {
			c.do(e, nil, len(c.ops)-1-j, time.Now(), false)
		}
		return c, nil
	}, func(c *chitter) { c.w.Close() })
	if err != nil {
		return err
	}
	defer c.w.Close()
	c.findByID, c.find, c.insert = lat{}, lat{}, lat{}
	c.reads.Store(0)
	e.rep.attempted = 0

	openFor := e.window / 2
	reg := c.w.Metrics()
	m0, rt0 := scrape(reg), readRuntime()
	create := func(i int) bool { return c.ops[i%len(c.ops)].create }
	late, backlog := openLoop(e.sz.chitterRate, openFor, create, func(_, i int, due time.Time) {
		c.do(e, e.tr, i, due, true)
	})
	m1, rt1 := scrape(reg), readRuntime()
	reads := c.reads.Load()

	n0 := int(e.sz.chitterRate * openFor.Seconds())
	rate, done := capacity(e.window-openFor, func(_, i int) { c.do(e, e.tr, n0+i, time.Now(), false) })
	rt2 := readRuntime()
	closedReads := c.reads.Load() - reads
	e.checkpointHeap()

	if err := e.setOpLatency(&c.views); err != nil {
		return err
	}
	e.setMedianAndTail("write", &c.writes)
	e.rep.set("ops_per_s", "1/s", rate, done)
	e.setGen(late, backlog)
	e.setGC(rt0, rt1)
	e.setLatency("orm.findbyid_us_p50", "orm.findbyid_us_p99", "us", &c.findByID)
	e.setLatency("orm.find_us_p50", "orm.find_us_p99", "us", &c.find)
	e.setLatency("orm.insert_us_p50", "orm.insert_us_p99", "us", &c.insert)
	e.rep.set("orm.allocs_per_read", "count", float64(rt2.allocObjects-rt1.allocObjects)/float64(closedReads), int(closedReads))
	e.rep.set("orm.bytes_per_read", "B", float64(rt2.allocBytes-rt1.allocBytes)/float64(closedReads), int(closedReads))
	e.setORM(m0, m1, reads)
	e.setWAL(m0, m1, c.userBytes.Load())
	e.rep.set("wal.recovery_s", "s", c.recovery.Seconds(), 1)
	return nil
}

// setGen records how late the open-loop dispatcher ran and its deepest
// backlog; both should stay near zero for the loop to be valid.
func (e *env) setGen(late *lat, backlog int) {
	s := late.sorted()
	e.rep.set("gen.late_p99_us", "us", quantile(s, 0.99)*1e6, len(s))
	e.rep.set("gen.backlog_max", "count", float64(backlog), len(s))
}

// setORM records the policy-boundary counters of a window between two
// scrapes, per foreground read.
func (e *env) setORM(m0, m1 map[string]float64, reads int64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	e.rep.set("orm.fields_stripped_per_read", "count", d("scooter_orm_fields_stripped_total")/float64(max(reads, 1)), int(reads))
	e.rep.set("orm.writes_denied", "count", d("scooter_orm_writes_denied_total"), 1)
	e.rep.set("orm.policies_interpreted", "count", m1["scooter_orm_policies_interpreted_total"], 1)
	e.rep.set("backfill.lazy_reads", "count", d("scooter_orm_lazy_reads_total"), 1)
}

// setWAL records the write-ahead log's counters of a window between two
// scrapes; userBytes is the payload the workload wrote.
func (e *env) setWAL(m0, m1 map[string]float64, userBytes int64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	appends := d("scooter_wal_appends_total")
	batches := d("scooter_wal_batch_records_count")
	e.rep.set("wal.fsyncs_per_write", "count", d("scooter_wal_fsyncs_total")/max(appends, 1), int(appends))
	e.rep.set("wal.batch_records_mean", "count", d("scooter_wal_batch_records_sum")/max(batches, 1), int(batches))
	e.rep.set("wal.bytes_per_user_byte", "ratio", d("scooter_wal_bytes_written_total")/float64(max(userBytes, 1)), int(appends))
	e.rep.set("wal.compactions", "count", d("scooter_wal_compactions_total"), 1)
	e.rep.set("wal.recovered_records", "count", m1["scooter_wal_recovered_records"], 1)
}

// scrape reads every sample of a metrics registry through its Prometheus
// exposition, keyed by name and labels.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
