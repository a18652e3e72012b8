package verify

import (
	"os"
	"path/filepath"
	"testing"

	"scooter/internal/lower"
	"scooter/internal/smt/term"
	"scooter/internal/store/wal"
)

func pkey(n uint64) CacheKey {
	return CacheKey{Fp: term.Fp{n, ^n}, Aux: n * 7, Kind: "User"}
}

func sampleViolation() Result {
	return Result{
		Verdict: Violation,
		Kind:    lower.PrincipalKind{Model: "User"},
		Counterexample: &Counterexample{
			Principal:    "User(1)",
			PrincipalRef: Ref{Model: "User", N: 1},
			Target: Record{
				Model: "User", ID: "User(0)", Ref: Ref{Model: "User", N: 0},
				Fields: []FieldValue{
					{Name: "name", Value: `"alice"`, Raw: "alice"},
					{Name: "age", Value: "41", Raw: int64(41)},
					{Name: "score", Value: "1.5", Raw: float64(1.5)},
					{Name: "isAdmin", Value: "true", Raw: true},
					{Name: "boss", Value: "User(1)", Raw: Ref{Model: "User", N: 1}},
					{Name: "followers", Value: "[User(1)]", Raw: []Ref{{Model: "User", N: 1}}},
					{Name: "nick", Value: `Some("al")`, Raw: OptValue{Present: true, Value: "al"}},
					{Name: "bio", Value: "None", Raw: OptValue{}},
					{Name: "odd", Value: "?", Raw: nil},
				},
			},
			Others: []Record{{
				Model: "User", ID: "User(1)", Ref: Ref{Model: "User", N: 1},
				Fields: []FieldValue{{Name: "name", Value: `"bob"`, Raw: "bob"}},
			}},
		},
	}
}

// Put is Insert under the name the verdict-file tests below use.
func (c *Cache) Put(key CacheKey, res Result) { c.Insert(key, res) }

func TestVerdictDBRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleViolation()
	d.Put(pkey(1), want)
	d.Put(pkey(2), Result{Verdict: Safe, Incomplete: true})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d2.Len())
	}
	got, ok := d2.Lookup(pkey(1))
	if !ok {
		t.Fatal("violation entry missing after reopen")
	}
	if got.Verdict != Violation || got.Kind.Model != "User" {
		t.Fatalf("got verdict %v kind %+v", got.Verdict, got.Kind)
	}
	// The warm counterexample must render byte-identically to the cold one.
	if got.Counterexample.String() != want.Counterexample.String() {
		t.Fatalf("counterexample text changed across persistence:\n%s\nvs\n%s",
			got.Counterexample.String(), want.Counterexample.String())
	}
	// And the raw values must survive with their exact types, for tests
	// that replay counterexamples against the evaluator.
	fields := got.Counterexample.Target.Fields
	if v, ok := fields[1].Raw.(int64); !ok || v != 41 {
		t.Fatalf("age raw = %#v, want int64(41)", fields[1].Raw)
	}
	if v, ok := fields[2].Raw.(float64); !ok || v != 1.5 {
		t.Fatalf("score raw = %#v, want float64(1.5)", fields[2].Raw)
	}
	if v, ok := fields[4].Raw.(Ref); !ok || v.N != 1 {
		t.Fatalf("boss raw = %#v, want Ref{User,1}", fields[4].Raw)
	}
	if v, ok := fields[5].Raw.([]Ref); !ok || len(v) != 1 {
		t.Fatalf("followers raw = %#v, want []Ref", fields[5].Raw)
	}
	if v, ok := fields[6].Raw.(OptValue); !ok || !v.Present || v.Value != "al" {
		t.Fatalf("nick raw = %#v, want OptValue{true, al}", fields[6].Raw)
	}
	if fields[8].Raw != nil {
		t.Fatalf("odd raw = %#v, want nil", fields[8].Raw)
	}
	safe, ok := d2.Lookup(pkey(2))
	if !ok || safe.Verdict != Safe || !safe.Incomplete {
		t.Fatalf("safe entry = %+v, %v", safe, ok)
	}
}

// TestVerdictDBLoadsRoundsField: files written while CacheKey still held
// the solver's round budget carry a "rounds" field in every record under
// the same magic. They load, and the budget-free key answers from them.
func TestVerdictDBLoadsRoundsField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	payload := `{"fp":[3,5],"aux":7,"kind":"User","rounds":20000,"v":1,"km":"User",` +
		`"ce":{"p":"User(1)","pr":{"Model":"User","N":1},` +
		`"t":{"m":"User","id":"User(0)","ref":{"Model":"User","N":0},"f":[{"n":"age","v":"41","r":{"t":"i","i":41}}]}}}`
	file := append([]byte(verdictMagic), wal.EncodeFrame([]byte(payload))...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Corrupt() != 0 || d.Len() != 1 {
		t.Fatalf("loaded %d records, %d corrupt; want 1, 0", d.Len(), d.Corrupt())
	}
	st := &Stats{}
	got, ok := lookupVerdict(d, st, CacheKey{Fp: term.Fp{3, 5}, Aux: 7, Kind: "User"})
	if !ok || got.Verdict != Violation || got.Counterexample == nil {
		t.Fatalf("lookup = (%+v, %v), want the stored violation", got, ok)
	}
	if raw := got.Counterexample.Target.Fields[0].Raw; raw != int64(41) {
		t.Fatalf("age raw = %#v, want int64(41)", raw)
	}
	if snap := st.Snapshot(); snap.PersistHits != 1 || snap.PersistMisses != 0 {
		t.Fatalf("persist %d hit / %d miss, want 1 / 0", snap.PersistHits, snap.PersistMisses)
	}
}

func TestVerdictDBRejectsInconclusive(t *testing.T) {
	d, err := OpenVerdictDB(filepath.Join(t.TempDir(), "v.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put(pkey(1), Result{Verdict: Inconclusive})
	if d.Len() != 0 {
		t.Fatal("Inconclusive verdict was persisted")
	}
	if _, ok := d.Lookup(pkey(1)); ok {
		t.Fatal("Inconclusive verdict answered a lookup")
	}
}

func TestVerdictDBTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.db")
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(pkey(1), Result{Verdict: Safe})
	d.Put(pkey(2), sampleViolation())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: the footprint of a crash during the second append.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if d2.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", d2.Len())
	}
	if corrupt := d2.Corrupt(); corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", corrupt)
	}
	// The store stays appendable after truncation.
	d2.Put(pkey(3), Result{Verdict: Safe})
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Len() != 2 {
		t.Fatalf("Len = %d after re-append, want 2", d3.Len())
	}
}

func TestVerdictDBBadHeaderResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.db")
	if err := os.WriteFile(path, []byte("not a verdict store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatalf("open with bad header: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
	if corrupt := d.Corrupt(); corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", corrupt)
	}
	d.Put(pkey(1), Result{Verdict: Safe})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 1 {
		t.Fatalf("Len = %d after reset+append, want 1", d2.Len())
	}
}

// TestCheckerPersistsAndReplays drives real strictness checks through a
// checker whose verdict store is file-backed: run one, reopen the store, run two — the
// second run must answer from disk without solving and report identical
// results, counterexample text included.
func TestCheckerPersistsAndReplays(t *testing.T) {
	s := loadSchema(t, chitterSchema)
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.db")

	run := func(t *testing.T) (*Stats, []*Result) {
		d, err := OpenVerdictDB(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		stats := &Stats{}
		c := New(s, nil)
		c.Cache = d
		c.Stats = stats
		var results []*Result
		// A safe tightening and an unsafe widening: one of each verdict.
		for _, pair := range [][2]string{
			{`public`, `u -> [u]`},
			{`u -> [u]`, `public`},
		} {
			res, err := c.CheckStrictness("User",
				policyOn(t, s, "User", pair[0]), policyOn(t, s, "User", pair[1]))
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		return stats, results
	}

	cold, coldRes := run(t)
	if cold.Snapshot().QueriesSolved == 0 {
		t.Fatal("cold run solved nothing")
	}
	warm, warmRes := run(t)
	snap := warm.Snapshot()
	if snap.QueriesSolved != 0 {
		t.Fatalf("warm run solved %d queries, want 0", snap.QueriesSolved)
	}
	if snap.PersistMisses != 0 {
		t.Fatalf("warm run had %d persist misses, want 0", snap.PersistMisses)
	}
	if snap.PersistHits == 0 {
		t.Fatal("warm run recorded no persist hits")
	}
	for i := range coldRes {
		if coldRes[i].Verdict != warmRes[i].Verdict {
			t.Fatalf("check %d: cold %v vs warm %v", i, coldRes[i].Verdict, warmRes[i].Verdict)
		}
		cs, ws := "", ""
		if coldRes[i].Counterexample != nil {
			cs = coldRes[i].Counterexample.String()
		}
		if warmRes[i].Counterexample != nil {
			ws = warmRes[i].Counterexample.String()
		}
		if cs != ws {
			t.Fatalf("check %d: counterexamples differ:\ncold:\n%s\nwarm:\n%s", i, cs, ws)
		}
	}
}

// TestVerdictDBBoundedInMemory opens a file holding more verdicts than the
// cache's capacity: the store keeps at most DefaultCacheCapacity of them in
// memory, the last-written ones, and the newest still answers.
func TestVerdictDBBoundedInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.db")
	d, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = DefaultCacheCapacity + 10
	for i := uint64(0); i < n; i++ {
		d.Insert(pkey(i), Result{Verdict: Safe})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenVerdictDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() > DefaultCacheCapacity {
		t.Fatalf("Len = %d, want at most %d", d2.Len(), DefaultCacheCapacity)
	}
	if _, ok := d2.Lookup(pkey(n - 1)); !ok {
		t.Fatal("newest verdict missing after reopen")
	}
	if _, ok := d2.Lookup(pkey(0)); ok {
		t.Fatal("oldest verdict kept past the capacity bound")
	}
}
