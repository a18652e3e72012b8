package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"scooter/internal/store"
)

// On-disk layout. Each segment starts with a 16-byte header:
//
//	[8B magic "SCWAL002"][8B little-endian segment index]
//
// followed by framed records:
//
//	[4B little-endian payload length][4B CRC32C(payload)][payload]
//
// The payload is one record in the store's binary value codec:
//
//	[uvarint LSN][1B op][string collection][varint id][string field]
//	[uvarint snapshot boundary][document, for inserts and updates only]
//
// with nothing after it. A record whose frame is short, whose length is
// implausible, whose checksum fails, or whose payload does not decode
// marks the torn tail: recovery truncates there and replays nothing after
// it. A segment carrying the version-1 magic "SCWAL001" (JSON payloads) is
// refused, never repaired.

const (
	segMagic     = "SCWAL002"
	segMagicV1   = "SCWAL001"
	headerSize   = 16
	frameSize    = 8
	maxRecordLen = 64 << 20 // sanity bound on a single record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record op codes, one byte in every payload.
const (
	opInsert byte = iota + 1
	opUpdate
	opDelete
	opRemField
	opCreateColl
	opDropColl
	opIndex
	opCheckpoint
)

// record is one decoded WAL entry. LSNs are assigned contiguously, so
// recovery can detect a gap (dropped record) as corruption.
type record struct {
	lsn   uint64
	op    byte
	coll  string
	id    store.ID
	field string
	// snap marks a checkpoint: a snapshot covering every record before
	// this one exists under the segment index snap.
	snap uint64
	doc  store.Doc // inserts and updates
}

// hasDoc reports whether records with op carry a document.
func hasDoc(op byte) bool { return op == opInsert || op == opUpdate }

// encodeMutation renders a store mutation as a framed record. It runs
// synchronously inside Durability.Append (under the collection lock), so
// the Doc may alias caller memory.
func encodeMutation(lsn uint64, m store.Mutation) ([]byte, error) {
	rec := record{lsn: lsn, coll: m.Coll, id: m.ID, field: m.Field, doc: m.Doc}
	switch m.Op {
	case store.MutInsert:
		rec.op = opInsert
	case store.MutUpdate:
		rec.op = opUpdate
	case store.MutDelete:
		rec.op = opDelete
	case store.MutRemoveField:
		rec.op = opRemField
	case store.MutCreateCollection:
		rec.op = opCreateColl
	case store.MutDropCollection:
		rec.op = opDropColl
	case store.MutCreateIndex:
		rec.op = opIndex
	default:
		return nil, fmt.Errorf("wal: unknown mutation op %d", m.Op)
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding %s/%v: %w", m.Coll, m.ID, err)
	}
	return frame, nil
}

// encodeCheckpoint renders a checkpoint record for a compaction boundary.
func encodeCheckpoint(lsn, boundary uint64) ([]byte, error) {
	return frameRecord(record{lsn: lsn, op: opCheckpoint, snap: boundary})
}

// frameRecord encodes a record straight into its length+CRC frame.
func frameRecord(rec record) ([]byte, error) {
	b := make([]byte, frameSize, frameSize+128)
	b = binary.AppendUvarint(b, rec.lsn)
	b = append(b, rec.op)
	b = store.AppendString(b, rec.coll)
	b = binary.AppendVarint(b, int64(rec.id))
	b = store.AppendString(b, rec.field)
	b = binary.AppendUvarint(b, rec.snap)
	if hasDoc(rec.op) {
		var err error
		if b, err = store.AppendDoc(b, rec.doc); err != nil {
			return nil, err
		}
	}
	return sealFrame(b), nil
}

// decodeRecord decodes one record payload; trailing bytes are an error.
func decodeRecord(payload []byte) (record, error) {
	d := store.NewDecoder(payload)
	var rec record
	rec.lsn = d.Uvarint()
	rec.op = d.Byte()
	rec.coll = d.Str()
	rec.id = store.ID(d.Varint())
	rec.field = d.Str()
	rec.snap = d.Uvarint()
	if hasDoc(rec.op) {
		rec.doc = d.Doc()
	}
	switch {
	case d.Err() != nil:
		return record{}, fmt.Errorf("wal: record: %w", d.Err())
	case rec.op < opInsert || rec.op > opCheckpoint:
		return record{}, fmt.Errorf("wal: record: unknown op %d", rec.op)
	case d.Len() != 0:
		return record{}, fmt.Errorf("wal: record: %d trailing bytes", d.Len())
	}
	return rec, nil
}

// segmentHeader renders the 16-byte header of a segment file.
func segmentHeader(seg uint64) []byte {
	h := make([]byte, headerSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint64(h[8:], seg)
	return h
}

// ParsedFrame is one decoded record frame, as shipped between replication
// peers. Parsing and applying are split so a follower can validate a frame
// and learn its LSN before mirroring the bytes into its own log, then apply
// the record to its store without re-decoding.
type ParsedFrame struct {
	lsn  uint64
	data []byte
	rec  record
}

// LSN returns the record's log sequence number.
func (p *ParsedFrame) LSN() uint64 { return p.lsn }

// Data returns the frame bytes exactly as framed on disk and on the wire.
func (p *ParsedFrame) Data() []byte { return p.data }

// Apply replays the record into db. The database must have no durability
// hook attached when the caller mirrors frames itself. An inserted document
// moves into db, so apply each parsed frame once.
func (p *ParsedFrame) Apply(db *store.DB) error { return applyRecord(db, p.rec) }

// ParseFrame validates one framed record — length, checksum, payload — and
// returns its decoded form. It rejects trailing bytes: a frame is exactly
// one record.
func ParseFrame(frame []byte) (*ParsedFrame, error) {
	if len(frame) < frameSize {
		return nil, fmt.Errorf("wal: frame shorter than its header (%d bytes)", len(frame))
	}
	n := int64(binary.LittleEndian.Uint32(frame[0:4]))
	if n > maxRecordLen || frameSize+n != int64(len(frame)) {
		return nil, fmt.Errorf("wal: frame length %d does not match payload (%d bytes)", n, len(frame)-frameSize)
	}
	payload := frame[frameSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("wal: frame checksum mismatch")
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	return &ParsedFrame{lsn: rec.lsn, data: frame, rec: rec}, nil
}

// segScan is the result of parsing one segment file.
type segScan struct {
	recs []record
	ends []int64 // ends[i]: byte offset just past recs[i]
	good int64   // offset just past the last well-formed record
	ok   bool    // whole file consumed without a torn tail
	// headerOK is false when the file lacks a valid header for its index;
	// nothing in it is recoverable.
	headerOK bool
	// v1 is set when the header carries the version-1 magic: the file is
	// intact old-format data, to be refused rather than repaired.
	v1 bool
}

// parseSegment reads the records of one segment from buf (the whole file).
// A record whose frame is short, whose length is implausible, whose
// checksum fails, or whose payload does not parse marks the torn tail:
// everything before it is returned and ok is false. Recovery truncates at
// good and never fails or panics on a torn tail.
func parseSegment(buf []byte, seg uint64) segScan {
	if len(buf) >= headerSize && string(buf[:8]) == segMagicV1 {
		return segScan{v1: true}
	}
	if len(buf) < headerSize || string(buf[:8]) != segMagic ||
		binary.LittleEndian.Uint64(buf[8:16]) != seg {
		return segScan{}
	}
	s := segScan{headerOK: true}
	end := int64(headerSize)
	s.good, s.ok = ScanFrames(buf, headerSize, func(payload []byte) bool {
		rec, err := decodeRecord(payload)
		if err != nil {
			return false
		}
		end += frameSize + int64(len(payload))
		s.recs = append(s.recs, rec)
		s.ends = append(s.ends, end)
		return true
	})
	return s
}
