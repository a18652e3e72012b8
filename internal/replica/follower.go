package replica

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scooter/internal/store"
	"scooter/internal/store/wal"
)

// Options tunes a Follower. The zero value gives strict local durability,
// 100ms–5s reconnect backoff, and 100ms acks.
type Options struct {
	// WAL tunes the follower's own mirrored log (sync policy, segment
	// size). Compaction is always disabled on a follower regardless of
	// this setting: compacting would allocate checkpoint LSNs that
	// collide with the primary's history.
	WAL wal.Options
	// MinBackoff / MaxBackoff bound the exponential reconnect backoff
	// (defaults 100ms and 5s). Backoff resets after any successful
	// handshake.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// DialTimeout bounds each connection attempt (default 3s).
	DialTimeout time.Duration
	// AckInterval is how often the follower reports its applied and
	// durable watermarks to the primary (default 100ms).
	AckInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.AckInterval <= 0 {
		o.AckInterval = 100 * time.Millisecond
	}
	return o
}

// Status is a point-in-time view of a follower's replication progress.
type Status struct {
	// Connected reports whether a replication session is live right now.
	Connected bool
	// AppliedLSN is the last primary record applied to the local store.
	AppliedLSN uint64
	// DurableLSN is the prefix of the primary's history this follower
	// would still have after a local crash.
	DurableLSN uint64
	// PrimaryDurableLSN is the primary's durable watermark as of the last
	// heartbeat.
	PrimaryDurableLSN uint64
	// LagLSNs is how many committed records the follower has not applied
	// yet (PrimaryDurableLSN - AppliedLSN, from the last heartbeat).
	LagLSNs uint64
	// LagBytes is the primary's byte backlog for this follower as of the
	// last heartbeat.
	LagBytes int64
	// Bootstraps counts snapshot bootstraps (initial sync, or falling
	// behind the primary's compaction horizon).
	Bootstraps int
	// Reconnects counts sessions re-established after the first.
	Reconnects int
	// LastError is the most recent connection or protocol error.
	LastError string
}

// errFatal marks follower errors that retrying cannot fix: local log
// failure, a record the local store rejects, or a failed re-bootstrap.
// The run loop stops and Status reports the error.
var errFatal = errors.New("replica: follower cannot continue")

// Follower mirrors a primary's WAL into its own log directory and applies
// each record to a local store, reconnecting with exponential backoff
// after faults. Its DB is byte-identical to the primary's state at
// AppliedLSN — always a committed prefix of the primary's history.
type Follower struct {
	dir  string
	addr string
	opts Options

	mu       sync.Mutex
	log      *wal.Log
	db       *store.DB
	conn     net.Conn
	st       Status
	bootBase uint64 // LSN the last bootstrap snapshot corresponded to
	sessions int
	closed   bool
	// applied is closed and replaced (under mu) whenever AppliedLSN
	// advances, so WaitForLSN blocks on real progress instead of polling.
	applied chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open recovers (or creates) a follower log directory and starts
// replicating from the primary at addr. Open returns immediately; the
// follower connects in the background and keeps retrying with backoff.
// Local recovery runs first, so reads are served from the last applied
// state even while the primary is unreachable.
func Open(dir, addr string, opts Options) (*Follower, error) {
	opts = opts.withDefaults()
	opts.WAL.CompactAfterBytes = -1
	l, db, err := wal.Open(dir, opts.WAL)
	if err != nil {
		return nil, err
	}
	// The follower mirrors the primary's frames itself via AppendRaw; a
	// durability hook would log every applied record a second time under
	// a fresh (colliding) LSN.
	db.SetDurability(nil)
	f := &Follower{
		dir: dir, addr: addr, opts: opts,
		log: l, db: db,
		applied: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	f.st.AppliedLSN = l.LastLSN()
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// DB returns the follower's store. After a snapshot bootstrap the store is
// rebuilt, so long-lived callers should re-fetch rather than cache it.
func (f *Follower) DB() *store.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Status reports the follower's current replication progress.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.DurableLSN = f.log.DurableLSN()
	if st.DurableLSN < f.bootBase {
		// A fresh bootstrap's state is durable at the snapshot LSN even
		// before the first mirrored frame lands.
		st.DurableLSN = f.bootBase
	}
	if st.PrimaryDurableLSN > st.AppliedLSN {
		st.LagLSNs = st.PrimaryDurableLSN - st.AppliedLSN
	} else {
		st.LagLSNs = 0
	}
	return st
}

// WaitForLSN blocks until the follower has applied at least lsn, or the
// timeout passes. It sleeps on the apply loop's broadcast rather than
// polling: the applied channel is captured under the same lock as the
// watermark, so an advance between the check and the wait still wakes us
// (the captured generation is already closed).
func (f *Follower) WaitForLSN(lsn uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		f.mu.Lock()
		applied := f.st.AppliedLSN
		ch := f.applied
		f.mu.Unlock()
		if applied >= lsn {
			return nil
		}
		select {
		case <-ch:
		case <-f.stop:
			return errors.New("replica: follower closed")
		case <-timer.C:
			st := f.Status()
			return fmt.Errorf("replica: follower stuck at LSN %d waiting for %d (connected=%v, last error: %s)",
				st.AppliedLSN, lsn, st.Connected, st.LastError)
		}
	}
}

// notifyAppliedLocked wakes WaitForLSN waiters; the caller holds f.mu and
// has just advanced f.st.AppliedLSN.
func (f *Follower) notifyAppliedLocked() {
	close(f.applied)
	f.applied = make(chan struct{})
}

// Close stops replicating and closes the mirrored log. It is idempotent
// and safe under concurrent callers.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	f.closed = true
	conn := f.conn
	f.mu.Unlock()
	close(f.stop)
	if conn != nil {
		conn.Close()
	}
	f.wg.Wait()
	f.mu.Lock()
	l := f.log
	f.mu.Unlock()
	return l.Close()
}

func (f *Follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// run is the reconnect loop: one session at a time, exponential backoff
// between failures, reset after any successful handshake.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.opts.MinBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		handshook, err := f.session()
		f.mu.Lock()
		f.st.Connected = false
		if err != nil && !f.closed {
			f.st.LastError = err.Error()
		}
		f.mu.Unlock()
		if f.isClosed() {
			return
		}
		if errors.Is(err, errFatal) {
			return
		}
		if handshook {
			backoff = f.opts.MinBackoff
		} else {
			backoff *= 2
			if backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// session runs one replication connection to completion: dial, handshake
// (with snapshot bootstrap when the primary compacted past our position),
// then the frame/heartbeat loop. handshook reports whether the primary
// answered the handshake, which resets the backoff.
func (f *Follower) session() (handshook bool, err error) {
	conn, err := net.DialTimeout("tcp", f.addr, f.opts.DialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return false, errors.New("replica: follower closed")
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	// Handshake: ask for the record after the last one we hold. bootBase
	// covers the window right after a bootstrap, before the first
	// mirrored frame: the log is empty but the state is at bootBase.
	f.mu.Lock()
	from := f.log.LastLSN()
	if from < f.bootBase {
		from = f.bootBase
	}
	f.mu.Unlock()
	from++

	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeJSONLine(conn, handshake{From: from}); err != nil {
		return false, err
	}
	conn.SetWriteDeadline(time.Time{})
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var reply handshakeReply
	if err := readJSONLine(br, &reply); err != nil {
		return false, err
	}

	expected := from
	switch reply.Mode {
	case "stream":
	case "snapshot":
		// The primary compacted past our position; our history is now
		// only reachable through its snapshot. Read it and rebuild.
		// Size is the peer's claim, not a fact: refuse a negative one, and
		// let memory grow only with the bytes that actually arrive.
		if reply.Size < 0 {
			return false, fmt.Errorf("replica: negative bootstrap snapshot size %d", reply.Size)
		}
		var snap bytes.Buffer
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		if _, err := io.CopyN(&snap, br, reply.Size); err != nil {
			return true, fmt.Errorf("replica: reading bootstrap snapshot: %w", err)
		}
		if err := f.rebootstrap(reply, snap.Bytes()); err != nil {
			return true, fmt.Errorf("%w: bootstrap: %v", errFatal, err)
		}
		expected = reply.Boundary
	case "error":
		// A refusal (e.g. diverged history) is not a healthy session:
		// let the backoff keep growing rather than retrying hot.
		return false, fmt.Errorf("replica: primary refused handshake: %s", reply.Error)
	default:
		return false, fmt.Errorf("replica: unknown handshake mode %q", reply.Mode)
	}
	conn.SetReadDeadline(time.Time{})

	f.mu.Lock()
	f.sessions++
	if f.sessions > 1 {
		f.st.Reconnects++
	}
	f.st.Connected = true
	f.st.LastError = ""
	log, db := f.log, f.db
	f.mu.Unlock()

	// Acks flow on their own goroutine; the session goroutine only reads
	// after the handshake, so the connection is never written from two
	// goroutines at once.
	ackStop := make(chan struct{})
	ackDone := make(chan struct{})
	go f.ackLoop(conn, ackStop, ackDone)
	defer func() { close(ackStop); <-ackDone }()

	for {
		kind, err := br.ReadByte()
		if err != nil {
			return true, err
		}
		switch kind {
		case msgFrame:
			frame, err := readFrameBody(br)
			if err != nil {
				return true, err
			}
			p, err := wal.ParseFrame(frame)
			if err != nil {
				return true, err
			}
			if p.LSN() != expected {
				return true, fmt.Errorf("replica: primary sent LSN %d where %d was expected", p.LSN(), expected)
			}
			// Mirror first, then apply. Order does not matter for crash
			// safety — recovery rebuilds the store purely from the
			// mirrored log — but an apply failure means divergence, and
			// stopping before ack keeps the primary's view honest.
			log.AppendRaw(p.LSN(), frame)
			if err := p.Apply(db); err != nil {
				return true, fmt.Errorf("%w: applying LSN %d: %v", errFatal, p.LSN(), err)
			}
			if lerr := log.Err(); lerr != nil {
				return true, fmt.Errorf("%w: mirrored log failed: %v", errFatal, lerr)
			}
			f.mu.Lock()
			f.st.AppliedLSN = p.LSN()
			f.notifyAppliedLocked()
			f.mu.Unlock()
			expected = p.LSN() + 1
		case msgHeartbeat:
			primaryDurable, backlog, err := readU64Pair(br)
			if err != nil {
				return true, err
			}
			f.mu.Lock()
			f.st.PrimaryDurableLSN = primaryDurable
			f.st.LagBytes = int64(backlog)
			f.mu.Unlock()
		default:
			return true, fmt.Errorf("replica: unknown message kind %q", kind)
		}
	}
}

// ackLoop periodically reports the applied and locally-durable watermarks
// to the primary.
func (f *Follower) ackLoop(conn net.Conn, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(f.opts.AckInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			st := f.Status()
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := writeU64Msg(conn, msgAck, st.AppliedLSN, st.DurableLSN); err != nil {
				return // the session read loop sees the dead connection too
			}
		}
	}
}

// rebootstrap replaces the follower's entire local state with a primary
// snapshot: close the mirrored log, wipe the directory, seed it with the
// snapshot at the primary's compaction boundary, and recover from it.
func (f *Follower) rebootstrap(reply handshakeReply, snap []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("replica: follower closed")
	}
	if err := f.log.Close(); err != nil {
		return fmt.Errorf("closing outdated log: %w", err)
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(f.dir, e.Name())); err != nil {
			return err
		}
	}
	if err := wal.WriteBootstrapSnapshot(f.dir, reply.Boundary, snap); err != nil {
		return err
	}
	l, db, err := wal.Open(f.dir, f.opts.WAL)
	if err != nil {
		return err
	}
	db.SetDurability(nil)
	f.log, f.db = l, db
	f.bootBase = reply.LSN
	f.st.AppliedLSN = reply.LSN
	f.notifyAppliedLocked()
	f.st.Bootstraps++
	return nil
}
