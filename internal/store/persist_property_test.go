package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randValue draws from the full value universe: scalars, ids, sets, and
// optionals, with nested sets and options down to a bounded depth.
func randValue(r *rand.Rand, depth int) Value {
	max := 8
	if depth <= 0 {
		max = 6 // leaves only
	}
	switch r.Intn(max) {
	case 0:
		return nil
	case 1:
		return r.Int63n(1000) - 500
	case 2:
		return float64(r.Int63n(1000))/4 - 100
	case 3:
		return r.Intn(2) == 0
	case 4:
		return fmt.Sprintf("s%d", r.Intn(100))
	case 5:
		return ID(r.Int63n(50) + 1)
	case 6:
		n := r.Intn(4)
		set := make([]Value, n)
		for i := range set {
			set[i] = randValue(r, depth-1)
		}
		return set
	default:
		if r.Intn(3) == 0 {
			return None()
		}
		return Some(randValue(r, depth-1))
	}
}

func randDoc(r *rand.Rand) Doc {
	d := Doc{}
	for i, n := 0, r.Intn(6); i < n; i++ {
		d[fmt.Sprintf("f%d", r.Intn(8))] = randValue(r, 2)
	}
	return d
}

// TestSnapshotRestoreProperty round-trips randomized databases over the
// full value universe: restore(snapshot(db)) must re-snapshot to the
// identical bytes. Byte identity is stronger than semantic equality — it is
// what the WAL's recovery-equivalence checks build on.
func TestSnapshotRestoreProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		db := Open()
		for c, nc := 0, 1+r.Intn(3); c < nc; c++ {
			coll := db.Collection(fmt.Sprintf("c%d", c))
			if r.Intn(2) == 0 {
				coll.EnsureIndex(fmt.Sprintf("f%d", r.Intn(8)))
			}
			for i, n := 0, r.Intn(10); i < n; i++ {
				coll.Insert(randDoc(r))
			}
			// Exercise post-insert mutations too.
			for i, n := 0, r.Intn(3); i < n; i++ {
				docs := coll.Find()
				if len(docs) == 0 {
					break
				}
				d := docs[r.Intn(len(docs))]
				switch r.Intn(3) {
				case 0:
					coll.Update(d.ID(), randDoc(r))
				case 1:
					coll.Delete(d.ID())
				default:
					coll.RemoveField(fmt.Sprintf("f%d", r.Intn(8)))
				}
			}
		}

		var first bytes.Buffer
		if err := db.Snapshot(&first); err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		restored, err := Restore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		var second bytes.Buffer
		if err := restored.Snapshot(&second); err != nil {
			t.Fatalf("trial %d: re-snapshot: %v", trial, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: snapshot not byte-identical after restore:\n%s\n---\n%s",
				trial, first.String(), second.String())
		}
	}
}

// TestAppendDocRoundTrip checks the WAL's per-document codec over the
// same universe.
func TestAppendDocRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		doc := randDoc(r)
		b, err := AppendDoc(nil, doc)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		d := NewDecoder(b)
		back := d.Doc()
		if d.Err() != nil || d.Len() != 0 {
			t.Fatalf("decode: %v (%d bytes left)", d.Err(), d.Len())
		}
		b2, err := AppendDoc(nil, back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		// Fields are written in sorted key order, so byte equality is the
		// round-trip check here too.
		if !bytes.Equal(b, b2) {
			t.Fatalf("doc codec not stable: %x vs %x", b, b2)
		}
	}
}

// TestSnapshotConsistentCut runs a writer that keeps an invariant across
// two collections (paired inserts and deletes) while snapshots are taken
// concurrently. Every restored snapshot must satisfy the invariant:
// the cut never splits a writer's pair of mutations across collections it
// already locked... i.e. Snapshot sees a point-in-time state.
func TestSnapshotConsistentCut(t *testing.T) {
	db := Open()
	a, b := db.Collection("a"), db.Collection("b")
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: a sliding window of W live pairs, so the database stays
	// small however far the writer outruns the snapshots. Each step
	// inserts a_i, inserts b_i, deletes b_{i-W}, then deletes a_{i-W}.
	// Invariant for any consistent cut: 0 <= len(a) - len(b) <= 1.
	const window = 64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var as, bs [window]ID
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := i % window
			oldA, oldB := as[slot], bs[slot]
			as[slot] = a.Insert(Doc{"seq": i})
			bs[slot] = b.Insert(Doc{"seq": i})
			if i >= window {
				b.Delete(oldB)
				a.Delete(oldA)
			}
		}
	}()

	for round := 0; round < 30; round++ {
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		cut, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		na, nb := cut.Collection("a").Len(), cut.Collection("b").Len()
		if nb > na {
			t.Fatalf("inconsistent cut: b has %d docs, a only %d", nb, na)
		}
		if na-nb > 1 {
			// The writer holds at most one pair open at a time, so a
			// consistent cut can only be one insert ahead.
			t.Fatalf("cut split the writer stream: a=%d b=%d", na, nb)
		}
	}
	close(stop)
	wg.Wait()
}
