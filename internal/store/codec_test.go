package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// fuzzDB is a small database covering every value kind, an index and an
// empty collection: the seed snapshot for FuzzRestore.
func fuzzDB() *DB {
	db := Open()
	users := db.Collection("User")
	users.EnsureIndex("name")
	alice := users.Insert(Doc{
		"name": "alice", "age": int64(30), "height": 1.7, "admin": true,
		"friends": []Value{ID(7), ID(9)}, "nick": Some("al"), "boss": None(), "pic": nil,
	})
	users.Insert(Doc{"name": "bob", "tags": []Value{Some([]Value{"x"}), None()}})
	db.Collection("Peep").Insert(Doc{"author": alice, "body": "hello"})
	db.Collection("Empty")
	return db
}

func snapshotOf(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withCRC appends the snapshot checksum to body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// FuzzReadDoc decodes arbitrary bytes as a document. An accepted document
// must re-encode, and decoding that encoding must give the same encoding
// again.
func FuzzReadDoc(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		b, err := AppendDoc(nil, randDoc(r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, d := range fuzzDB().Collection("User").Find() {
		b, err := AppendDoc(nil, d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		doc := d.Doc()
		if d.Err() != nil {
			return
		}
		enc, err := AppendDoc(nil, doc)
		if err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		d2 := NewDecoder(enc)
		again := d2.Doc()
		if d2.Err() != nil || d2.Len() != 0 {
			t.Fatalf("re-encoded document rejected: %v (%d bytes left)", d2.Err(), d2.Len())
		}
		if enc2, _ := AppendDoc(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("decode(encode(doc)) differs: %x vs %x", enc, enc2)
		}
	})
}

// FuzzRestore feeds arbitrary bytes to Restore, both as they are and with
// a valid checksum appended (so the fuzzer gets past it). An accepted
// snapshot must re-snapshot to bytes that restore and re-snapshot
// identically.
func FuzzRestore(f *testing.F) {
	snap := snapshotOf(f, fuzzDB())
	f.Add(snap[:len(snap)-4])
	f.Add(snapshotOf(f, Open())[:len(snapMagic)+2])
	f.Fuzz(func(t *testing.T, data []byte) {
		Restore(bytes.NewReader(data))
		db, err := Restore(bytes.NewReader(withCRC(data)))
		if err != nil {
			return
		}
		first := snapshotOf(t, db)
		again, err := Restore(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if second := snapshotOf(t, again); !bytes.Equal(first, second) {
			t.Fatalf("restore(snapshot(db)) differs:\n%x\n%x", first, second)
		}
	})
}

// TestDecoderBoundsCounts gives every counted field a count far beyond
// the input. Each must be rejected without allocating for it.
func TestDecoderBoundsCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	body := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	docs := map[string][]byte{
		"field count":  huge,
		"key length":   body([]byte{1}, huge),
		"string value": body([]byte{1, 1, 'a', tagString}, huge),
		"set count":    body([]byte{1, 1, 'a', tagSet}, huge),
	}
	for name, b := range docs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(b)
		d.Doc()
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Errorf("%s: oversized count accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte input", name, grew, len(b))
		}
	}
	for name, b := range map[string][]byte{
		"collection count": body([]byte(snapMagic), []byte{2}, huge),
		"index count":      body([]byte(snapMagic), []byte{2, 1, 1, 'A'}, huge),
		"document count":   body([]byte(snapMagic), []byte{2, 1, 1, 'A', 0}, huge),
	} {
		if _, err := Restore(bytes.NewReader(withCRC(b))); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: got %v, want a count error", name, err)
		}
	}
}

// TestDecoderRejectsNonCanonical covers inputs the encoder never writes:
// unknown tags, duplicate or unsorted fields, an inline id, bad bools and
// trailing bytes after a snapshot.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for name, b := range map[string][]byte{
		"unknown tag":    {1, 1, 'a', 0x7f},
		"duplicate key":  {2, 1, 'a', tagNull, 1, 'a', tagNull},
		"unsorted keys":  {2, 1, 'b', tagNull, 1, 'a', tagNull},
		"inline id":      {1, 2, 'i', 'd', tagID, 2},
		"bad bool":       {1, 1, 'a', tagBool, 2},
		"truncated":      {1, 1, 'a', tagFloat, 0, 0},
		"deep nesting":   append([]byte{1, 1, 'a'}, bytes.Repeat([]byte{tagSome}, maxDepth+2)...),
		"no field value": {1, 1, 'a'},
	} {
		d := NewDecoder(b)
		if d.Doc(); d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	snap := snapshotOf(t, fuzzDB())
	body := append(bytes.Clone(snap[:len(snap)-4]), 0)
	if _, err := Restore(bytes.NewReader(withCRC(body))); err == nil {
		t.Error("trailing byte after the last collection accepted")
	}
	snap[len(snap)/2] ^= 0xFF
	if _, err := Restore(bytes.NewReader(snap)); err == nil {
		t.Error("checksum mismatch accepted")
	}
}

// TestRestoreRefusesVersion1 checks that a version-1 JSON snapshot is
// refused with an error naming its format.
func TestRestoreRefusesVersion1(t *testing.T) {
	v1 := "{\n  \"version\": 1,\n  \"nextId\": 1,\n  \"collections\": {}\n}\n"
	if _, err := Restore(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version-1 JSON") {
		t.Fatalf("got %v, want a version-1 refusal", err)
	}
}
