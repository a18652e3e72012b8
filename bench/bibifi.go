package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scooter"
	"scooter/examples/bibifi-web/app"
)

// bioMigration adds a field backfilled from each user's school, readable
// by whoever can read the school.
const bioMigration = `User::AddField(bio : String { read: x -> [x, Admin], write: x -> [x] }, x -> x.school);`

// bibifiOp is one generated request: a profile view, the announcements
// page, or a user updating their own school.
type bibifiOp struct {
	kind int // opProfile, opAnnouncements or opUpdate
	user int
}

const (
	opProfile = iota
	opAnnouncements
	opUpdate
)

// bibifi is a set-up BIBIFI deployment: a durable primary serving HTTP on
// loopback, with a follower replicating it.
type bibifi struct {
	dir string
	srv *app.Server
	fw  *scooter.FollowerWorkspace
	hs  *http.Server
	// served is closed when hs stops serving.
	served chan struct{}
	conns  [2]*conn // one per load worker
	ids    []scooter.ID
	tr     *tracer

	// reads, migReads and writes are the open loop's operation latencies
	// from when each was due: migReads holds the reads that completed
	// while the backfill ran, reads the others. The backfill stalls reads
	// for milliseconds at a time, and how many 100-read chunks it covers
	// moved a pooled p90 by a third between runs. upd times the ORM's
	// Update call and transport the client's round trip less the handler's
	// time.
	reads, migReads, writes, upd, transport lat
	migrating                               atomic.Bool
	// handler holds each request's handler time, by operation index.
	handler []atomic.Int64
	// acked holds each user's last acknowledged school; stripes serialise
	// a user's updates so the last acknowledgement is the value that must
	// survive.
	acked     []string
	stripes   [64]sync.Mutex
	userBytes atomic.Int64
}

// ServeHTTP times the application's handler for each request.
func (b *bibifi) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	b.srv.ServeHTTP(w, r)
	end := time.Now()
	i, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	if err != nil || i < 0 || i >= len(b.handler) {
		return
	}
	b.handler[i].Store(int64(end.Sub(start)))
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	b.tr.remote("app", parent, int64(i+1), start, end)
}

// openBibifi seeds users in dir under relaxed fsync, reopens it with every
// acknowledged write fsynced and automatic compaction, starts a follower
// over loopback and waits for it to catch up, and serves HTTP on loopback.
func openBibifi(e *env, dir string, ops int) (*bibifi, error) {
	b := &bibifi{dir: dir, handler: make([]atomic.Int64, ops), acked: make([]string, e.sz.bibifiUsers)}
	srv, err := app.Open(dir, scooter.DurabilityOptions{SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	b.ids = srv.Seed(e.sz.bibifiUsers, 10)
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if b.srv, err = app.Open(dir, scooter.DurabilityOptions{SyncEvery: 1, CompactAfterBytes: e.sz.bibifiCompactBytes}); err != nil {
		return nil, err
	}
	repl, err := b.srv.W.ServeReplication("127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.fw, err = scooter.OpenFollower(dir+"-follower", repl.Addr().String(), scooter.FollowerOptions{})
	if err != nil {
		b.close()
		return nil, err
	}
	if err := b.fw.WaitForLSN(b.srv.W.DurableLSN(), time.Minute); err != nil {
		b.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.hs, b.served = &http.Server{Handler: b}, make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns ErrServerClosed once close stops it
	}()
	for w := range b.conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.close()
			return nil, err
		}
		b.conns[w] = &conn{c: c, br: bufio.NewReader(c)}
	}
	return b, nil
}

// conn is one keep-alive HTTP/1.1 client connection. The benchmark writes
// requests and reads responses on the worker's own goroutine: net/http's
// Transport hands each request through two more goroutines per
// connection, and on two cores their scheduling moved closed-loop
// throughput by a fifth between runs.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

// close stops serving and closes the follower and the primary.
func (b *bibifi) close() {
	for _, c := range b.conns {
		if c != nil {
			c.c.Close()
		}
	}
	if b.hs != nil {
		b.hs.Close()
		<-b.served
	}
	if b.fw != nil {
		b.fw.Close()
	}
	b.srv.Close()
}

// get requests path as user u (u < 0: unauthenticated) on worker w's
// connection and checks the page. It returns the client's round-trip time.
func (b *bibifi) get(root *active, w, i int, path string, u int) (time.Duration, error) {
	req, err := http.NewRequest("GET", "http://bench"+path, nil)
	if err != nil {
		return 0, err
	}
	want := "Announcement 0"
	if u >= 0 {
		req.Header.Set("X-User-Id", strconv.FormatInt(int64(b.ids[u]), 10))
		want = fmt.Sprintf("<h1>user%d</h1>", u)
	}
	sp := root.child("http")
	req.Header.Set("X-Bench-Op", strconv.Itoa(i))
	req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id(), 10))
	c := b.conns[w]
	start := time.Now()
	if err := req.Write(c.c); err != nil {
		sp.end()
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		sp.end()
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	sp.end()
	switch {
	case err != nil:
		return 0, err
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	case !strings.Contains(string(body), want):
		return 0, fmt.Errorf("GET %s as user%d: page lacks %q", path, u, want)
	}
	return rt, nil
}

// update sets user u's school through the ORM as u.
func (b *bibifi) update(root *active, i, u int) error {
	mu := &b.stripes[u%len(b.stripes)]
	mu.Lock()
	defer mu.Unlock()
	school := fmt.Sprintf("school-%d", i)
	sp := root.child("orm")
	start := time.Now()
	err := b.srv.W.AsPrinc(scooter.Instance("User", b.ids[u])).Update("User", b.ids[u], scooter.Doc{"school": school})
	b.upd.add(time.Since(start))
	sp.end()
	if err != nil {
		return err
	}
	b.acked[u] = school
	b.userBytes.Add(int64(len(school)))
	return nil
}

// runBibifi is an operator migrating live data (§5.4 application). A
// closed loop of profile and announcement requests over two HTTP
// connections first measures the server's capacity for a third of the
// window. An open loop of the same reads and of school updates through
// the ORM then runs for the rest, while the write-ahead log fsyncs every
// acknowledged write, compacts, and streams to a follower; a quarter into
// it an online AddField backfills every user. The reads that complete
// while the backfill runs are reported apart, as migration_read_*. At the
// end the follower must hold the primary's state, and a restart must
// recover that state with every acknowledged write.
func runBibifi(e *env) error {
	r := rand.New(rand.NewSource(e.seed))
	openFor := e.window * 2 / 3
	n := int(e.sz.bibifiRate * openFor.Seconds())
	// The closed loop's operations follow the open loop's.
	ops := make([]bibifiOp, n+1<<16)
	zipf := rand.NewZipf(r, 1.1, 10, uint64(e.sz.bibifiUsers-1))
	rank := r.Perm(e.sz.bibifiUsers)
	for i := range ops {
		ops[i].user = rank[zipf.Uint64()]
		switch p := r.Float64(); {
		case p < 0.7:
			ops[i].kind = opProfile
		case p < 0.9:
			ops[i].kind = opAnnouncements
		default:
			ops[i].kind = opUpdate
		}
	}

	b, err := setup(e, func(i int) (*bibifi, error) {
		b, err := openBibifi(e, filepath.Join(e.dir, fmt.Sprintf("bibifi-%d", i)), len(ops))
		if err != nil {
			return nil, err
		}
		for j := 0; j < 200; j++ {
			if _, err := b.get(nil, j%len(b.conns), -1, "/profile", j%len(b.ids)); err != nil {
				b.close()
				return nil, err
			}
		}
		return b, nil
	}, func(b *bibifi) { b.close() })
	if err != nil {
		return err
	}
	defer b.close()
	b.tr = e.tr

	// Capacity is of the read path alone, measured while nothing runs
	// beside it: after the open loop a compaction it triggered may still
	// run, and updates would time the compactions they trigger rather than
	// the server.
	rate, done := capacity(e.window-openFor, func(c, i int) {
		o := ops[(n+i)%len(ops)]
		if o.kind == opUpdate {
			o.kind = opProfile
		}
		b.do(e, o, c, n+i, time.Now(), false)
	})

	var gaps, lag lat
	reg := b.srv.W.Metrics()
	m0, rt0 := scrape(reg), readRuntime()

	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				lag.addf(float64(b.fw.ReplicationStatus().LagLSNs))
			}
		}
	}()

	var migration time.Duration
	migDone := make(chan error, 1)
	go func() {
		time.Sleep(openFor / 4)
		mig := e.tr.root("backfill", 0)
		opts := scooter.DefaultOptions()
		opts.Online = true
		last := time.Now()
		opts.OnBatch = func(string, string, scooter.ID, int) error {
			now := time.Now()
			gaps.add(now.Sub(last))
			e.tr.remote("batch", mig.id(), 0, last, now)
			last = now
			return nil
		}
		start := time.Now()
		b.migrating.Store(true)
		_, err := b.srv.W.MigrateNamedOpts("003_bio", bioMigration, opts)
		b.migrating.Store(false)
		migration = time.Since(start)
		mig.end()
		migDone <- err
	}()

	update := func(i int) bool { return ops[i].kind == opUpdate }
	late, backlog := openLoop(e.sz.bibifiRate, openFor, update, func(w, i int, due time.Time) {
		b.do(e, ops[i], w, i, due, true)
	})
	if err := <-migDone; err != nil {
		e.rep.fail("online migration: %v", err)
	}
	m1, rt1 := scrape(reg), readRuntime()
	close(stopLag)
	<-lagDone
	start := time.Now()
	if err := b.fw.WaitForLSN(b.srv.W.DurableLSN(), time.Minute); err != nil {
		e.rep.fail("follower catch-up: %v", err)
	}
	catchup := time.Since(start)
	if err := b.checkConverged(); err != nil {
		e.rep.fail("%v", err)
	}
	e.checkpointHeap()
	recovery, recovered, err := b.restart()
	if err != nil {
		e.rep.fail("%v", err)
	}

	if err := e.setOpLatency(&b.reads); err != nil {
		return err
	}
	e.setMedianAndTail("migration_read", &b.migReads)
	e.setMedianAndTail("write", &b.writes)
	e.rep.set("ops_per_s", "1/s", rate, done)
	e.rep.set("backfill.docs_per_s", "1/s", float64(e.sz.bibifiUsers)/migration.Seconds(), 1)
	e.rep.set("backfill.migration_s", "s", migration.Seconds(), 1)
	gs := gaps.sorted()
	e.rep.set("backfill.batch_gap_p99_ms", "ms", quantile(gs, 0.99)*1e3, len(gs))
	e.setGen(late, backlog)
	e.setGC(rt0, rt1)
	e.setLatency("orm.update_us_p50", "orm.update_us_p99", "us", &b.upd)
	var handler lat
	for i := range n {
		if d := b.handler[i].Load(); d > 0 {
			handler.add(time.Duration(d))
		}
	}
	e.setLatency("app.handler_us_p50", "app.handler_us_p99", "us", &handler)
	ts := b.transport.sorted()
	e.rep.set("http.transport_us_p50", "us", quantile(ts, 0.5)*1e6, len(ts))
	e.setORM(m0, m1, int64(b.reads.len()+b.migReads.len()))
	e.setWAL(m0, m1, b.userBytes.Load())
	e.rep.set("wal.recovery_s", "s", recovery.Seconds(), 1)
	e.rep.set("wal.recovered_records", "count", recovered, 1)
	ls := lag.sorted()
	e.rep.set("replica.lag_lsn_p99", "count", quantile(ls, 0.99), len(ls))
	e.rep.set("replica.catchup_ms", "ms", catchup.Seconds()*1e3, 1)
	return nil
}

// do runs operation i on worker w. With timed set, it records the
// operation's latency from due among the reads, the migration's reads or
// the writes, and a read's round trip less the handler's time as
// transport.
func (b *bibifi) do(e *env, o bibifiOp, w, i int, due time.Time, timed bool) {
	e.rep.attempt(1)
	root := e.tr.root("bench", int64(i+1))
	defer root.end()
	var err error
	switch o.kind {
	case opUpdate:
		if err = b.update(root, i, o.user); err == nil && timed {
			b.writes.add(time.Since(due))
		}
	default:
		path, u := "/profile", o.user
		if o.kind == opAnnouncements {
			path, u = "/announcements", -1
		}
		var rt time.Duration
		if rt, err = b.get(root, w, i, path, u); err == nil && timed {
			if b.migrating.Load() {
				b.migReads.add(time.Since(due))
			} else {
				b.reads.add(time.Since(due))
			}
			b.transport.add(rt - time.Duration(b.handler[i].Load()))
		}
	}
	if err != nil {
		e.rep.fail("op %d: %v", i, err)
	}
}

// checkConverged checks that the follower holds exactly the primary's
// state at the primary's durable position.
func (b *bibifi) checkConverged() error {
	for try := 0; ; try++ {
		lsn, want, err := b.srv.W.StateHash()
		if err != nil {
			return err
		}
		if err := b.fw.WaitForLSN(lsn, time.Minute); err != nil {
			return err
		}
		flsn, got, err := b.fw.StateHash()
		if err != nil {
			return err
		}
		if flsn == lsn {
			if got != want {
				return fmt.Errorf("follower state %s at LSN %d, primary %s", got, lsn, want)
			}
			return nil
		}
		if try == 10 {
			return fmt.Errorf("follower at LSN %d never settled on the primary's %d", flsn, lsn)
		}
	}
}

// restart closes the deployment, reopens the primary until it serves the
// post-migration schema, and checks that it recovered the state it had
// before closing, with every acknowledged write. It returns the time to
// reopen and the records recovery replayed.
func (b *bibifi) restart() (time.Duration, float64, error) {
	_, before, err := b.srv.W.StateHash()
	b.close()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	srv, err := app.Open(b.dir, scooter.DurabilityOptions{SyncEvery: 1})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	if _, err := srv.W.MigrateNamed("003_bio", bioMigration); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	recovered := scrape(srv.W.Metrics())["scooter_wal_recovered_records"]
	if _, after, err := srv.W.StateHash(); err != nil {
		return 0, 0, err
	} else if after != before {
		return 0, 0, errors.New("recovered state differs from the state before the restart")
	}
	if !strings.Contains(srv.W.SpecText(), "bio") {
		return 0, 0, errors.New("recovered spec lacks the migrated field")
	}
	admin := srv.W.AsPrinc(scooter.Static("Admin"))
	for u, school := range b.acked {
		if school == "" {
			continue
		}
		obj, err := admin.FindByID("User", b.ids[u])
		if err != nil {
			return 0, 0, err
		}
		if obj == nil {
			return 0, 0, fmt.Errorf("user%d missing after restart", u)
		}
		if got, _ := obj.Get("school"); got != school {
			return 0, 0, fmt.Errorf("user%d school %v after restart, acknowledged %q", u, got, school)
		}
		if bio, ok := obj.Get("bio"); !ok || bio == "" {
			return 0, 0, fmt.Errorf("user%d has no bio after the migration", u)
		}
	}
	return elapsed, recovered, nil
}
