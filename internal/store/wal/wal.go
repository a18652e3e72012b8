// Package wal gives the document store durability: a segmented,
// CRC32C-checksummed write-ahead log with group commit, crash recovery,
// and log compaction.
//
// Every store mutation is appended as a binary record before the write is
// acknowledged. A committer goroutine batches concurrent writers into one
// write + fsync (group commit); SyncEvery trades durability for
// throughput. Open replays the latest snapshot plus the live log,
// truncating a torn tail at the first bad record, so the recovered store
// always equals a prefix of the committed write history. Compact folds the
// live log into a fresh snapshot at a consistent cut and prunes old
// segments.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scooter/internal/obs"
	"scooter/internal/store"
)

// ErrClosed is returned for writes against a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options tunes the log. The zero value means: fsync every acknowledged
// write (batched across concurrent writers), 16 MiB segments, compaction
// once the live log passes 64 MiB.
type Options struct {
	// SyncEvery controls fsync batching:
	//
	//	1 (or 0, the default): every acknowledged write is fsynced before
	//	  its wait returns; concurrent writers share one fsync.
	//	N > 1: the committer fsyncs after N unsynced records or after
	//	  syncInterval, whichever comes first; waits return once the
	//	  record reaches the OS, so a crash may lose the last window.
	//	< 0: fsync only on rotation, Sync, and Close.
	SyncEvery int
	// SegmentMaxBytes rotates to a new segment file once the current one
	// exceeds it (default 16 MiB).
	SegmentMaxBytes int64
	// CompactAfterBytes triggers automatic compaction once the live log
	// (segments newer than the last snapshot) exceeds it. Default 64 MiB;
	// negative disables automatic compaction.
	CompactAfterBytes int64
	// MaxBatchRecords caps how many records one group-commit flush
	// coalesces (default 1024; negative disables the cap). A bulk writer —
	// a migration backfill populating a whole collection, say — can
	// otherwise enqueue an unbounded batch that the committer turns into
	// one giant buffered write and fsync, blowing the batch-size
	// histogram's top bucket and spiking memory. Overflowing batches are
	// split into capped chunks and counted via Metrics.RecordBatchOverflow.
	MaxBatchRecords int
	// Metrics, when set, observes appends, physical writes, fsyncs,
	// group-commit batch sizes, compactions, and recovery. Nil is a no-op
	// sink.
	Metrics *obs.WALMetrics
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 16 << 20
	}
	if o.CompactAfterBytes == 0 {
		o.CompactAfterBytes = 64 << 20
	}
	if o.MaxBatchRecords == 0 {
		o.MaxBatchRecords = 1024
	}
	return o
}

// syncInterval bounds how long a record stays unsynced when SyncEvery > 1.
const syncInterval = 10 * time.Millisecond

// strict reports whether waits require an fsync before returning.
func (o Options) strict() bool { return o.SyncEvery >= 0 && o.SyncEvery <= 1 }

// rotateMarker carries a compaction boundary through the commit queue: the
// committer rotates to a fresh segment when it reaches the marker and
// reports the new segment index back through seg.
type rotateMarker struct {
	lsn  uint64
	seg  uint64
	done chan struct{}
}

// queued is one entry in the commit queue: a framed record, or a rotation
// marker (frame nil).
type queued struct {
	frame  []byte
	lsn    uint64
	marker *rotateMarker
}

// Log is the write-ahead log attached to one store.DB. It implements
// store.Durability.
type Log struct {
	dir  string
	opts Options
	db   *store.DB

	// mu guards the commit queue and LSN/segment allocation.
	mu        sync.Mutex
	queue     []queued
	lastLSN   uint64
	nextSeg   uint64
	forceSync bool
	closed    bool

	// stateMu guards the watermarks waiters block on.
	stateMu    sync.Mutex
	stateCond  *sync.Cond
	writtenLSN uint64
	durableLSN uint64
	errState   error
	// durableCh is closed and replaced whenever durableLSN advances or the
	// log shuts down, so tailers can select on progress alongside their own
	// stop channels (a sync.Cond cannot be selected on).
	durableCh chan struct{}
	// finished is set once the committer has exited; tailers treat it as
	// end-of-stream once they have drained up to the final watermark.
	finished bool

	// committer-owned state.
	f            *os.File
	curSeg       uint64
	curSize      int64
	liveBytes    int64
	buf          []byte
	bufLSN       uint64
	unsyncedRecs int
	lastSync     time.Time

	replayed   int
	compacting atomic.Bool
	wake       chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup
}

// DB returns the store this log is attached to.
func (l *Log) DB() *store.DB { return l.db }

// Replayed reports how many records Open replayed over the snapshot.
func (l *Log) Replayed() int { return l.replayed }

// Err returns the sticky error the log failed with, if any.
func (l *Log) Err() error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.errState
}

// Append implements store.Durability. It is called under the mutated
// collection's lock: it serialises the record and enqueues it, deferring
// all I/O to the committer; the returned wait blocks until the record is
// durable (strict modes) or handed to the OS (relaxed modes).
func (l *Log) Append(m store.Mutation) store.WaitFunc {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return func() error { return ErrClosed }
	}
	frame, err := encodeMutation(l.lastLSN+1, m)
	if err != nil {
		l.mu.Unlock()
		l.fail(err)
		return func() error { return err }
	}
	l.lastLSN++
	lsn := l.lastLSN
	l.queue = append(l.queue, queued{frame: frame, lsn: lsn})
	l.mu.Unlock()
	l.opts.Metrics.RecordAppend()
	l.kick()
	strict := l.opts.strict()
	return func() error { return l.waitFor(lsn, strict) }
}

// AppendRaw appends a pre-framed record under an externally assigned LSN.
// Replication followers use it to mirror the primary's log record-for-
// record: frame must be a well-formed record frame whose payload LSN is
// lsn, and lsn must exceed every LSN appended so far (gaps are allowed —
// the first frame after a snapshot bootstrap anchors the sequence). The
// caller applies the record to the store itself; the store attached to a
// mirrored log must have no durability hook, or every record would be
// logged twice. Do not mix AppendRaw with store-driven Append on one log.
func (l *Log) AppendRaw(lsn uint64, frame []byte) store.WaitFunc {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return func() error { return ErrClosed }
	}
	if lsn <= l.lastLSN {
		last := l.lastLSN
		l.mu.Unlock()
		err := fmt.Errorf("wal: raw append of LSN %d at or below the log's last LSN %d", lsn, last)
		return func() error { return err }
	}
	l.lastLSN = lsn
	l.queue = append(l.queue, queued{frame: append([]byte(nil), frame...), lsn: lsn})
	l.mu.Unlock()
	l.opts.Metrics.RecordAppend()
	l.kick()
	strict := l.opts.strict()
	return func() error { return l.waitFor(lsn, strict) }
}

// Sync forces an fsync of everything appended so far and waits for it.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.Err()
	}
	lsn := l.lastLSN
	l.forceSync = true
	l.mu.Unlock()
	l.kick()
	return l.waitFor(lsn, true)
}

// Close drains the queue, fsyncs, and stops the committer. Writes after
// Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return l.Err()
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	return l.Err()
}

func (l *Log) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// waitFor blocks until the watermark covers lsn or the log fails.
func (l *Log) waitFor(lsn uint64, durable bool) error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	for {
		if l.errState != nil {
			return l.errState
		}
		mark := l.writtenLSN
		if durable {
			mark = l.durableLSN
		}
		if mark >= lsn {
			return nil
		}
		l.stateCond.Wait()
	}
}

// fail records the first error and releases every waiter with it.
func (l *Log) fail(err error) {
	l.stateMu.Lock()
	if l.errState == nil {
		l.errState = err
	}
	l.notifyTailersLocked()
	l.stateCond.Broadcast()
	l.stateMu.Unlock()
}

// advance publishes new watermarks and wakes waiters.
func (l *Log) advance(written, durable uint64) {
	l.stateMu.Lock()
	if written > l.writtenLSN {
		l.writtenLSN = written
	}
	if durable > l.durableLSN {
		l.durableLSN = durable
		l.notifyTailersLocked()
	}
	l.stateCond.Broadcast()
	l.stateMu.Unlock()
}

// notifyTailersLocked wakes everyone selecting on the durable-progress
// channel; stateMu must be held.
func (l *Log) notifyTailersLocked() {
	close(l.durableCh)
	l.durableCh = make(chan struct{})
}

// markSynced raises the durable watermark to the written one after an
// fsync and wakes waiters and tailers.
func (l *Log) markSynced() {
	l.stateMu.Lock()
	if l.writtenLSN > l.durableLSN {
		l.durableLSN = l.writtenLSN
		l.notifyTailersLocked()
	}
	l.stateCond.Broadcast()
	l.stateMu.Unlock()
}

// DurableLSN reports the highest LSN known to be durable (fsynced, or — in
// relaxed modes — handed to the OS and later fsynced).
func (l *Log) DurableLSN() uint64 {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.durableLSN
}

// LastLSN reports the highest LSN allocated so far (appended, though not
// necessarily durable yet).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// durableState returns the current durable watermark, a channel closed on
// the next advance (or shutdown), and whether the log is still live.
func (l *Log) durableState() (lsn uint64, ch <-chan struct{}, live bool) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.durableLSN, l.durableCh, !l.finished && l.errState == nil
}

// run is the committer: it drains the queue, coalesces records into one
// write, rotates segments, and applies the sync policy. One fsync commits
// every writer in the batch — the group in group commit.
func (l *Log) run() {
	defer l.wg.Done()
	var tick <-chan time.Time
	if l.opts.SyncEvery > 1 {
		t := time.NewTicker(syncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.wake:
			l.coalesce()
			l.drainOnce(false)
		case <-tick:
			l.drainOnce(false)
		case <-l.done:
			for l.drainOnce(true) {
			}
			l.finalize()
			return
		}
	}
}

// coalesce widens the commit group before the fsync: the kick that woke
// the committer is delivered as soon as the first writer enqueues, so
// writers that are already runnable would otherwise land in the next
// group and pay a second fsync. Yield the processor until the queue stops
// growing (bounded, so an endless writer stream cannot starve the commit).
func (l *Log) coalesce() {
	prev := -1
	for i := 0; i < 4; i++ {
		l.mu.Lock()
		n := len(l.queue)
		l.mu.Unlock()
		if n == prev {
			return
		}
		prev = n
		runtime.Gosched()
	}
}

// drainOnce grabs the queue and commits it; it reports whether another
// pass might find more work (used by the shutdown drain).
func (l *Log) drainOnce(final bool) bool {
	l.mu.Lock()
	batch := l.queue
	l.queue = nil
	force := l.forceSync
	l.forceSync = false
	l.mu.Unlock()

	if l.Err() != nil {
		// The log already failed: discard, but release compactors blocked
		// on their markers.
		for _, q := range batch {
			if q.marker != nil {
				close(q.marker.done)
			}
		}
		return false
	}
	records := 0
	overflowed := false
	for _, q := range batch {
		if q.marker != nil {
			if records > 0 {
				l.opts.Metrics.ObserveBatch(records)
				records = 0
			}
			l.flush()
			l.processMarker(q.marker)
			continue
		}
		l.buf = append(l.buf, q.frame...)
		l.bufLSN = q.lsn
		l.unsyncedRecs++
		records++
		// Cap the flush unit: a bulk enqueue (whole-collection backfill)
		// is split into bounded chunks so the write buffer and the
		// batch-size histogram stay bounded.
		if l.opts.MaxBatchRecords > 0 && records >= l.opts.MaxBatchRecords {
			l.opts.Metrics.ObserveBatch(records)
			records = 0
			overflowed = true
			l.flush()
		}
	}
	if records > 0 {
		l.opts.Metrics.ObserveBatch(records)
	}
	if overflowed {
		l.opts.Metrics.RecordBatchOverflow()
	}
	l.flush()
	l.applySyncPolicy(force || final)
	if l.Err() == nil {
		l.maybeRotateBySize()
		l.maybeAutoCompact()
	}
	return len(batch) > 0
}

// flush writes buffered frames to the current segment.
func (l *Log) flush() {
	if len(l.buf) == 0 || l.Err() != nil {
		l.buf = l.buf[:0]
		return
	}
	n, err := l.f.Write(l.buf)
	l.curSize += int64(n)
	l.liveBytes += int64(n)
	l.opts.Metrics.RecordBytes(n)
	if err != nil {
		l.fail(fmt.Errorf("wal: writing segment %d: %w", l.curSeg, err))
		l.buf = l.buf[:0]
		return
	}
	l.advance(l.bufLSN, 0)
	l.buf = l.buf[:0]
}

// applySyncPolicy decides whether this batch ends in an fsync.
func (l *Log) applySyncPolicy(force bool) {
	if l.Err() != nil {
		return
	}
	need := false
	switch {
	case force:
		need = l.unsyncedRecs > 0 || l.durableBehind()
	case l.opts.strict():
		need = l.durableBehind()
	case l.opts.SyncEvery > 1:
		need = l.unsyncedRecs >= l.opts.SyncEvery ||
			(l.unsyncedRecs > 0 && time.Since(l.lastSync) >= syncInterval)
	}
	if !need {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync segment %d: %w", l.curSeg, err))
		return
	}
	l.opts.Metrics.RecordFsync()
	l.unsyncedRecs = 0
	l.lastSync = time.Now()
	l.markSynced()
}

func (l *Log) durableBehind() bool {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.writtenLSN > l.durableLSN
}

// processMarker rotates to a fresh segment at a compaction boundary and
// writes the checkpoint record that opens it.
func (l *Log) processMarker(m *rotateMarker) {
	defer close(m.done)
	if l.Err() != nil {
		return
	}
	l.mu.Lock()
	l.nextSeg++
	seg := l.nextSeg
	l.mu.Unlock()
	if !l.rotateTo(seg) {
		return
	}
	l.liveBytes = 0
	frame, err := encodeCheckpoint(m.lsn, seg)
	if err != nil {
		l.fail(err)
		return
	}
	l.buf = append(l.buf, frame...)
	l.bufLSN = m.lsn
	l.unsyncedRecs++
	l.flush()
	m.seg = seg
}

// rotateTo syncs and closes the current segment and starts a new one; it
// reports success.
func (l *Log) rotateTo(seg uint64) bool {
	if err := l.f.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync segment %d: %w", l.curSeg, err))
		return false
	}
	l.opts.Metrics.RecordFsync()
	l.markSynced()
	l.unsyncedRecs = 0
	if err := l.f.Close(); err != nil {
		l.fail(err)
		return false
	}
	f, err := createSegment(l.dir, seg)
	if err != nil {
		l.fail(err)
		return false
	}
	l.f = f
	l.curSeg = seg
	l.curSize = headerSize
	return true
}

// maybeRotateBySize starts a new segment when the current one is full.
func (l *Log) maybeRotateBySize() {
	if l.curSize < l.opts.SegmentMaxBytes {
		return
	}
	l.mu.Lock()
	l.nextSeg++
	seg := l.nextSeg
	l.mu.Unlock()
	l.rotateTo(seg)
}

// maybeAutoCompact folds the live log into a snapshot once it passes the
// configured threshold. Compaction runs beside the committer; errors are
// not fatal to the log (the uncompacted log remains valid).
func (l *Log) maybeAutoCompact() {
	if l.opts.CompactAfterBytes < 0 || l.liveBytes < l.opts.CompactAfterBytes || l.compacting.Load() {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		_ = l.Compact()
	}()
}

// finalize runs at committer exit: everything is on disk and fsynced, so
// pending waiters drain.
func (l *Log) finalize() {
	if l.Err() == nil {
		if err := l.f.Sync(); err != nil {
			l.fail(err)
		} else {
			l.opts.Metrics.RecordFsync()
		}
	}
	_ = l.f.Close()
	l.stateMu.Lock()
	if l.errState == nil && l.writtenLSN > l.durableLSN {
		l.durableLSN = l.writtenLSN
	}
	l.finished = true
	l.notifyTailersLocked()
	l.stateCond.Broadcast()
	l.stateMu.Unlock()
	// Release any compactor whose marker never reached the committer and
	// fail writers that enqueued after the final drain (none should
	// exist, but a stuck waiter would be worse than a spurious error).
	l.mu.Lock()
	rest := l.queue
	l.queue = nil
	l.mu.Unlock()
	if len(rest) > 0 {
		l.fail(ErrClosed)
		for _, q := range rest {
			if q.marker != nil {
				close(q.marker.done)
			}
		}
	}
}

// Compact folds the live log into a fresh snapshot: it captures a
// consistent cut of the store, rotates the log to a new segment exactly at
// that cut, writes the snapshot atomically, and prunes the segments the
// snapshot covers. Concurrent writes keep flowing; only the cut itself
// briefly holds the store's locks.
func (l *Log) Compact() error {
	if !l.compacting.CompareAndSwap(false, true) {
		return nil // a compaction is already running
	}
	defer l.compacting.Store(false)
	if err := l.Err(); err != nil {
		return err
	}

	marker := &rotateMarker{done: make(chan struct{})}
	enqueued := false
	var snap bytes.Buffer
	err := l.db.SnapshotCut(&snap, func() {
		l.mu.Lock()
		if !l.closed {
			l.lastLSN++
			marker.lsn = l.lastLSN
			l.queue = append(l.queue, queued{lsn: marker.lsn, marker: marker})
			enqueued = true
		}
		l.mu.Unlock()
	})
	if err != nil {
		return err
	}
	if !enqueued {
		return ErrClosed
	}
	l.kick()
	<-marker.done
	if err := l.Err(); err != nil {
		return err
	}
	if marker.seg == 0 {
		return fmt.Errorf("wal: compaction boundary rotation did not complete")
	}
	// Everything before the marker lives in segments below the boundary;
	// rotation fsynced them, so the snapshot never outruns the log.
	if marker.lsn > 0 {
		if err := l.waitFor(marker.lsn-1, true); err != nil {
			return err
		}
	}
	if err := writeSnapshot(l.dir, marker.seg, snap.Bytes()); err != nil {
		return err
	}
	pruneBelow(l.dir, marker.seg)
	l.opts.Metrics.RecordCompaction()
	return nil
}

// writeSnapshot persists a snapshot atomically: write to a temp file,
// fsync, rename into place, fsync the directory.
func writeSnapshot(dir string, boundary uint64, data []byte) error {
	final := filepath.Join(dir, snapName(boundary))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// pruneBelow removes segments and snapshots older than the boundary.
// Best-effort: leftovers are ignored (and cleaned on the next Open).
func pruneBelow(dir string, boundary uint64) {
	segs, snaps, _ := scanDir(dir)
	for seg, name := range segs {
		if seg < boundary {
			os.Remove(filepath.Join(dir, name))
		}
	}
	for snap, name := range snaps {
		if snap < boundary {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func segName(i uint64) string  { return fmt.Sprintf("wal-%08d.log", i) }
func snapName(i uint64) string { return fmt.Sprintf("snap-%08d.bin", i) }

// SegmentName returns the file name of segment i, for tools and tests that
// inspect a log directory.
func SegmentName(i uint64) string { return segName(i) }

// createSegment makes a fresh segment file with its header on disk.
func createSegment(dir string, seg uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(segmentHeader(seg)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
