package verify

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scooter/internal/store/wal"
)

// FuzzVerdictDB opens arbitrary bytes as a verdict store. Opening must
// never panic or fail (the store is a cache: damage costs re-proving, not
// an error), every loaded verdict must survive an encode/decode round trip
// unchanged, and reopening the repaired file must load the same number of
// verdicts. The seeds are a real store holding a Safe and a Violation
// verdict, a truncated copy of it, and a foreign header.
func FuzzVerdictDB(f *testing.F) {
	s := loadSchema(f, chitterSchema)
	seed := filepath.Join(f.TempDir(), "seed.db")
	d, err := OpenVerdictDB(seed)
	if err != nil {
		f.Fatal(err)
	}
	c := New(s, nil)
	c.Cache = d
	for _, pair := range [][2]string{{`public`, `u -> [u]`}, {`u -> [u]`, `public`}} {
		if _, err := c.CheckStrictness("User",
			policyOn(f, s, "User", pair[0]), policyOn(f, s, "User", pair[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-3])
	f.Add([]byte("SCWAL002"))
	// An explicitly empty set once decoded to []Ref{} but re-encoded as
	// absent, so the round trip changed it.
	f.Add([]byte(`{"fp":[1,2],"aux":3,"kind":"User","rounds":5,"v":1,"ce":{"p":"x","pr":{"Model":"User","N":1},` +
		`"t":{"m":"User","id":"u","ref":{"Model":"User","N":0},"f":[{"n":"a","v":"b","r":{"t":"refs","refs":[]}}]}}}`))
	wal.ScanFrames(real, int64(len(verdictMagic)), func(payload []byte) bool {
		f.Add(append([]byte(nil), payload...))
		return true
	})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// data as a whole file, and data as one record payload inside an
		// intact frame, so mutations reach the record decoder past the CRC.
		framed := append([]byte(verdictMagic), wal.EncodeFrame(data)...)
		for _, file := range [][]byte{data, framed} {
			checkVerdictFile(t, filepath.Join(dir, "fuzz.db"), file)
		}
	})
}

// checkVerdictFile writes data to path and checks FuzzVerdictDB's
// invariants on opening it.
func checkVerdictFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for el := d.ll.Front(); el != nil; el = el.Next() {
		key, res := el.Value.(*cacheEntry).key, el.Value.(*cacheEntry).res
		payload, err := encodeRecord(key, res)
		if err != nil {
			t.Fatalf("encode loaded verdict: %v", err)
		}
		key2, res2, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode re-encoded verdict: %v", err)
		}
		if key2 != key || !reflect.DeepEqual(res2, res) {
			t.Fatalf("round trip changed the verdict:\n%+v %+v\n%+v %+v", key, res, key2, res2)
		}
	}
	n := d.Len()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Len() != n {
		t.Fatalf("reopened store holds %d verdicts, first open %d", d2.Len(), n)
	}
}
