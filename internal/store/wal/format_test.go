package wal

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scooter/internal/store"
)

// v1Segment renders a segment in the version-1 format: the SCWAL001
// header followed by framed JSON records.
func v1Segment(seg uint64, records ...string) []byte {
	b := []byte(segMagicV1)
	b = binary.LittleEndian.AppendUint64(b, seg)
	for _, r := range records {
		b = append(b, EncodeFrame([]byte(r))...)
	}
	return b
}

// readDir returns every file in dir by name with its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestOpenRefusesVersion1Data opens directories written in the version-1
// format. Recovery must fail with an error naming the version and leave
// every file byte-identical: old data is refused, never repaired.
func TestOpenRefusesVersion1Data(t *testing.T) {
	cases := []struct {
		name  string
		files map[string][]byte
		want  string
	}{
		{
			name: "segment",
			files: map[string][]byte{
				"wal-00000001.log": v1Segment(1,
					`{"l":1,"o":"mkc","c":"users"}`,
					`{"l":2,"o":"ins","c":"users","i":2,"d":{"name":{"t":"s","v":"alice"}}}`),
			},
			want: "SCWAL001",
		},
		{
			name: "snapshot",
			files: map[string][]byte{
				"snap-00000002.json": []byte("{\n  \"version\": 1,\n  \"nextId\": 2,\n  \"collections\": {\n    \"users\": {\n      \"docs\": {\n        \"2\": {\n          \"name\": {\n            \"t\": \"s\",\n            \"v\": \"alice\"\n          }\n        }\n      }\n    }\n  }\n}\n"),
				"wal-00000002.log":   v1Segment(2, `{"l":3,"o":"ckp","s":2}`),
			},
			want: "version-1 JSON snapshot",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := readDir(t, dir)
			l, _, err := Open(dir, Options{})
			if err == nil {
				l.Close()
				t.Fatal("version-1 data opened")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the version (%q)", err, tc.want)
			}
			if after := readDir(t, dir); !maps.Equal(before, after) {
				t.Fatalf("refused open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestOpenRepairsTornHeader keeps the repair path for a header that is not
// a whole known one — a crash inside createSegment — distinct from the
// refusal above: the segment is recreated empty and the log opens.
func TestOpenRepairsTornHeader(t *testing.T) {
	for _, hdr := range []string{"SCWAL00", "SCWAL001", "garbage-header!!"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(hdr), 0o644); err != nil {
			t.Fatal(err)
		}
		l, db, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("header %q: %v", hdr, err)
		}
		db.Collection("users").Insert(store.Doc{"name": "alice"})
		mustClose(t, l)
		got, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, segmentHeader(1)) {
			t.Fatalf("header %q: segment not recreated: %q", hdr, got[:min(len(got), headerSize)])
		}
	}
}

// FuzzParseFrame feeds arbitrary bytes to the record decoder, both as a
// raw frame and as the payload of a well-formed frame (so the fuzzer gets
// past the checksum). An accepted record must re-encode to a record that
// decodes to the same encoding.
func FuzzParseFrame(f *testing.F) {
	doc := store.Doc{
		"id": store.ID(2), "name": "alice", "age": int64(-30), "h": 1.5, "ok": true,
		"tags": []store.Value{"a", store.ID(3)}, "nick": store.Some("al"), "boss": store.None(), "nil": nil,
	}
	muts := []store.Mutation{
		{Op: store.MutInsert, Coll: "users", ID: 2, Doc: doc},
		{Op: store.MutUpdate, Coll: "users", ID: 2, Doc: store.Doc{"age": int64(31)}},
		{Op: store.MutDelete, Coll: "users", ID: 2},
		{Op: store.MutRemoveField, Coll: "users", Field: "nick"},
		{Op: store.MutCreateCollection, Coll: "users"},
		{Op: store.MutDropCollection, Coll: "users"},
		{Op: store.MutCreateIndex, Coll: "users", Field: "name"},
	}
	for i, m := range muts {
		frame, err := encodeMutation(uint64(i+1), m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameSize:])
	}
	ckp, err := encodeCheckpoint(9, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckp[frameSize:])

	f.Fuzz(func(t *testing.T, data []byte) {
		ParseFrame(data)
		p, err := ParseFrame(EncodeFrame(data))
		if err != nil {
			return
		}
		if p.LSN() != p.rec.lsn {
			t.Fatalf("LSN %d, record says %d", p.LSN(), p.rec.lsn)
		}
		again, err := frameRecord(p.rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		p2, err := ParseFrame(again)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		third, err := frameRecord(p2.rec)
		if err != nil || !bytes.Equal(again, third) {
			t.Fatalf("decode(encode(record)) differs: %x vs %x (%v)", again, third, err)
		}
	})
}
