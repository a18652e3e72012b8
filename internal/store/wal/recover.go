package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"scooter/internal/store"
)

// Open recovers a database from dir and returns the attached log. It
// restores the newest snapshot, replays the live segments over it in LSN
// order, and truncates the torn tail at the first bad record — a short or
// corrupt frame, an LSN gap, or a record the store rejects. The result is
// always the state after some prefix of the committed history, never a
// partially applied record. Every later mutation of the returned DB is
// logged before it is acknowledged.
func Open(dir string, opts Options) (*Log, *store.DB, error) {
	opts = opts.withDefaults()
	recoveryStart := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	// Restore the newest snapshot, if any. Snapshots are written atomically
	// (tmp + fsync + rename), so a present snapshot is complete; one that
	// fails to parse is real damage and recovery stops rather than silently
	// reviving older state.
	var boundary uint64
	var db *store.DB
	if len(snaps) > 0 {
		for idx := range snaps {
			if idx > boundary {
				boundary = idx
			}
		}
		f, err := os.Open(filepath.Join(dir, snaps[boundary]))
		if err != nil {
			return nil, nil, err
		}
		db, err = store.Restore(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("wal: snapshot %s: %w", snaps[boundary], err)
		}
	} else {
		db = store.Open()
	}

	// The replayable segments are the contiguous run starting at the
	// snapshot boundary (compaction creates segment K together with
	// snapshot K). A gap means the later segments are orphans.
	var replay []uint64
	for idx := range segs {
		if idx >= boundary {
			replay = append(replay, idx)
		}
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i] < replay[j] })
	run := replay[:0]
	for i, idx := range replay {
		if i > 0 && idx != replay[i-1]+1 {
			break
		}
		run = append(run, idx)
	}
	orphans := replay[len(run):]

	var (
		lastLSN   uint64
		replayed  int
		torn      bool
		curSeg    uint64
		liveBytes int64
	)
	for segIdx, seg := range run {
		path := filepath.Join(dir, segName(seg))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		scan := parseSegment(buf, seg)
		if scan.v1 {
			return nil, nil, fmt.Errorf("wal: %s is a version-1 (%s) segment; this build reads only %s logs", path, segMagicV1, segMagic)
		}
		keep := scan.good
		bad := !scan.ok
		for i, rec := range scan.recs {
			// LSNs are contiguous across the whole run. Only the run's
			// first segment may anchor the sequence (its first LSN depends
			// on the history the snapshot absorbed); from then on, any gap
			// means records were lost — e.g. an earlier segment damaged
			// down to a "valid" empty file — and replaying further would
			// apply a suffix without its prefix. Treat the gap as the torn
			// point.
			if (lastLSN != 0 || segIdx > 0) && rec.lsn != lastLSN+1 {
				bad = true
				keep = recStart(scan, i)
				break
			}
			if err := applyRecord(db, rec); err != nil {
				// A record the recovered state rejects is corruption in
				// record terms even if its bytes checksum: keep the prefix.
				bad = true
				keep = recStart(scan, i)
				break
			}
			lastLSN = rec.lsn
			replayed++
			liveBytes += recStart(scan, i+1) - recStart(scan, i)
		}
		curSeg = seg
		if bad {
			torn = true
			if !scan.headerOK {
				if err := os.Remove(path); err != nil {
					return nil, nil, err
				}
				f, err := createSegment(dir, seg)
				if err != nil {
					return nil, nil, err
				}
				f.Close()
			} else if err := truncateSegment(path, keep); err != nil {
				return nil, nil, err
			}
			break
		}
	}
	if torn {
		for idx, name := range segs {
			if idx > curSeg {
				os.Remove(filepath.Join(dir, name))
			}
		}
	} else {
		for _, idx := range orphans {
			os.Remove(filepath.Join(dir, segs[idx]))
		}
	}
	// Segments and snapshots below the boundary are covered by the
	// snapshot; a crash mid-prune leaves them behind, so finish the job.
	pruneBelow(dir, boundary)

	if curSeg == 0 {
		// Fresh directory (or a snapshot with no live segment): start a
		// new segment at the boundary.
		curSeg = boundary
		if curSeg == 0 {
			curSeg = 1
		}
		f, err := createSegment(dir, curSeg)
		if err != nil {
			return nil, nil, err
		}
		f.Close()
	}

	path := filepath.Join(dir, segName(curSeg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}

	l := &Log{
		dir:       dir,
		opts:      opts,
		db:        db,
		lastLSN:   lastLSN,
		nextSeg:   curSeg,
		f:         f,
		curSeg:    curSeg,
		curSize:   st.Size(),
		liveBytes: liveBytes,
		lastSync:  time.Now(),
		replayed:  replayed,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	l.stateCond = sync.NewCond(&l.stateMu)
	l.durableCh = make(chan struct{})
	l.writtenLSN = lastLSN
	l.durableLSN = lastLSN
	db.SetDurability(l)
	opts.Metrics.RecordRecovery(time.Since(recoveryStart).Seconds(), replayed)
	l.wg.Add(1)
	go l.run()
	return l, db, nil
}

// recStart returns the byte offset where record i begins (or where record
// i would begin, for i == len(recs)).
func recStart(s segScan, i int) int64 {
	if i == 0 {
		return headerSize
	}
	return s.ends[i-1]
}

// applyRecord replays one WAL record into the store. The store has no
// durability attached during replay, so nothing is re-logged.
func applyRecord(db *store.DB, rec record) error {
	switch rec.op {
	case opInsert:
		if err := db.Collection(rec.coll).Adopt(rec.id, rec.doc); err != nil {
			return err
		}
		db.AdvanceNextID(rec.id)
		return nil
	case opUpdate:
		return db.Collection(rec.coll).Update(rec.id, rec.doc)
	case opDelete:
		if !db.Collection(rec.coll).Delete(rec.id) {
			return fmt.Errorf("wal: delete of missing %s/%d", rec.coll, rec.id)
		}
		return nil
	case opRemField:
		db.Collection(rec.coll).RemoveField(rec.field)
		return nil
	case opCreateColl:
		db.Collection(rec.coll)
		return nil
	case opDropColl:
		db.DropCollection(rec.coll)
		return nil
	case opIndex:
		db.Collection(rec.coll).EnsureIndex(rec.field)
		return nil
	case opCheckpoint:
		return nil // boundary marker; the snapshot choice already used it
	default:
		return fmt.Errorf("wal: unknown op %d", rec.op)
	}
}

// truncateSegment cuts a torn tail off a segment and makes the cut durable.
func truncateSegment(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanDir lists segment and snapshot files by index. Leftover temp files
// from an interrupted snapshot write are removed. A version-1 JSON
// snapshot is an error: old data is refused, never silently skipped.
func scanDir(dir string) (segs, snaps map[uint64]string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	segs = map[uint64]string{}
	snaps = map[uint64]string{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var idx uint64
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &idx); n == 1 && name == segName(idx) {
			segs[idx] = name
			continue
		}
		if n, _ := fmt.Sscanf(name, "snap-%d.bin", &idx); n == 1 && name == snapName(idx) {
			snaps[idx] = name
			continue
		}
		if n, _ := fmt.Sscanf(name, "snap-%d.json", &idx); n == 1 && name == fmt.Sprintf("snap-%08d.json", idx) {
			return nil, nil, fmt.Errorf("wal: %s is a version-1 JSON snapshot; this build reads only binary snapshots", filepath.Join(dir, name))
		}
	}
	return segs, snaps, nil
}
