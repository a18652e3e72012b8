package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"scooter/internal/lower"
	"scooter/internal/store/wal"
)

// A verdict file is what OpenVerdictDB backs a Cache with, so verdicts
// outlive the process. Verdicts are keyed by the same alpha-invariant
// CacheKey, so a file written by one sidecar run answers for any later run
// (or any other checkout of the same spec history) whose queries lower to
// the same formulas. Violation entries retain the fully rendered
// counterexample — a warm replay reproduces cold output byte for byte.
//
// The format is an 8-byte magic header followed by append-only records in
// the WAL's frame layout ([len][crc32c][payload], wal.EncodeFrame). A torn
// tail — the footprint of a crash mid-append — is truncated away on open,
// and a CRC-valid record whose payload fails to decode is skipped and
// counted, never fatal: a damaged file degrades to a cold start, it does
// not block verification.

// verdictMagic identifies a verdict-store file (and its format version).
const verdictMagic = "SCVDB001"

// vdbRecord is the persisted form of one (key, result) pair. Files written
// before the round budget left CacheKey carry a "rounds" field, which
// decoding ignores: their verdicts answer under the new key unchanged.
type vdbRecord struct {
	Fp   [2]uint64 `json:"fp"`
	Aux  uint64    `json:"aux"`
	Kind string    `json:"kind"`

	Verdict    int    `json:"v"`
	KindModel  string `json:"km,omitempty"`
	KindStatic string `json:"ks,omitempty"`
	Incomplete bool   `json:"inc,omitempty"`
	CE         *vdbCE `json:"ce,omitempty"`
}

type vdbCE struct {
	Principal       string   `json:"p"`
	PrincipalRef    Ref      `json:"pr"`
	StaticPrincipal string   `json:"sp,omitempty"`
	Target          vdbRow   `json:"t"`
	Others          []vdbRow `json:"o,omitempty"`
}

type vdbRow struct {
	Model  string     `json:"m"`
	ID     string     `json:"id"`
	Ref    Ref        `json:"ref"`
	Fields []vdbField `json:"f,omitempty"`
}

type vdbField struct {
	Name  string    `json:"n"`
	Value string    `json:"v"`
	Raw   *vdbValue `json:"r,omitempty"`
}

// vdbValue is the type-tagged encoding of FieldValue.Raw, which holds one
// of int64, float64, bool, string, Ref, []Ref, OptValue, or nil. JSON alone
// cannot round-trip that union (numbers collapse to float64, structs to
// maps), so each value carries its tag.
type vdbValue struct {
	T    string  `json:"t"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	B    bool    `json:"b,omitempty"`
	S    string  `json:"s,omitempty"`
	Ref  *Ref    `json:"ref,omitempty"`
	Refs []Ref   `json:"refs,omitempty"`
	Opt  *vdbOpt `json:"opt,omitempty"`
}

type vdbOpt struct {
	Present bool      `json:"p"`
	Value   *vdbValue `json:"v,omitempty"`
}

func encodeRaw(v any) (*vdbValue, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case int64:
		return &vdbValue{T: "i", I: x}, nil
	case float64:
		return &vdbValue{T: "f", F: x}, nil
	case bool:
		return &vdbValue{T: "b", B: x}, nil
	case string:
		return &vdbValue{T: "s", S: x}, nil
	case Ref:
		r := x
		return &vdbValue{T: "ref", Ref: &r}, nil
	case []Ref:
		return &vdbValue{T: "refs", Refs: x}, nil
	case OptValue:
		inner, err := encodeRaw(x.Value)
		if err != nil {
			return nil, err
		}
		return &vdbValue{T: "opt", Opt: &vdbOpt{Present: x.Present, Value: inner}}, nil
	}
	return nil, fmt.Errorf("verify: unencodable counterexample value %T", v)
}

func decodeRaw(v *vdbValue) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch v.T {
	case "i":
		return v.I, nil
	case "f":
		return v.F, nil
	case "b":
		return v.B, nil
	case "s":
		return v.S, nil
	case "ref":
		if v.Ref == nil {
			return nil, fmt.Errorf("verify: ref value missing ref")
		}
		return *v.Ref, nil
	case "refs":
		if len(v.Refs) == 0 {
			// An empty set encodes like an absent one (omitempty), so
			// both decode to nil and a re-encoded record reads back equal.
			return []Ref(nil), nil
		}
		return v.Refs, nil
	case "opt":
		if v.Opt == nil {
			return nil, fmt.Errorf("verify: opt value missing opt")
		}
		inner, err := decodeRaw(v.Opt.Value)
		if err != nil {
			return nil, err
		}
		return OptValue{Present: v.Opt.Present, Value: inner}, nil
	}
	return nil, fmt.Errorf("verify: unknown value tag %q", v.T)
}

func encodeRow(r Record) (vdbRow, error) {
	row := vdbRow{Model: r.Model, ID: r.ID, Ref: r.Ref}
	for _, f := range r.Fields {
		raw, err := encodeRaw(f.Raw)
		if err != nil {
			return row, err
		}
		row.Fields = append(row.Fields, vdbField{Name: f.Name, Value: f.Value, Raw: raw})
	}
	return row, nil
}

func decodeRow(r vdbRow) (Record, error) {
	rec := Record{Model: r.Model, ID: r.ID, Ref: r.Ref}
	for _, f := range r.Fields {
		raw, err := decodeRaw(f.Raw)
		if err != nil {
			return rec, err
		}
		rec.Fields = append(rec.Fields, FieldValue{Name: f.Name, Value: f.Value, Raw: raw})
	}
	return rec, nil
}

func encodeRecord(key CacheKey, res Result) ([]byte, error) {
	rec := vdbRecord{
		Fp:         key.Fp,
		Aux:        key.Aux,
		Kind:       key.Kind,
		Verdict:    int(res.Verdict),
		KindModel:  res.Kind.Model,
		KindStatic: res.Kind.Static,
		Incomplete: res.Incomplete,
	}
	if ce := res.Counterexample; ce != nil {
		target, err := encodeRow(ce.Target)
		if err != nil {
			return nil, err
		}
		enc := &vdbCE{
			Principal:       ce.Principal,
			PrincipalRef:    ce.PrincipalRef,
			StaticPrincipal: ce.StaticPrincipal,
			Target:          target,
		}
		for _, o := range ce.Others {
			row, err := encodeRow(o)
			if err != nil {
				return nil, err
			}
			enc.Others = append(enc.Others, row)
		}
		rec.CE = enc
	}
	return json.Marshal(rec)
}

func decodeRecord(payload []byte) (CacheKey, Result, error) {
	var rec vdbRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return CacheKey{}, Result{}, err
	}
	if rec.Verdict != int(Safe) && rec.Verdict != int(Violation) {
		return CacheKey{}, Result{}, fmt.Errorf("verify: persisted verdict %d out of range", rec.Verdict)
	}
	if rec.KindModel != "" && rec.KindStatic != "" {
		// A principal kind names a model or a static, never both. Only the
		// retired whole-check equivalence reports packed counts into both.
		return CacheKey{}, Result{}, fmt.Errorf("verify: persisted principal kind names model %q and static %q", rec.KindModel, rec.KindStatic)
	}
	key := CacheKey{Fp: rec.Fp, Aux: rec.Aux, Kind: rec.Kind}
	res := Result{
		Verdict:    Verdict(rec.Verdict),
		Kind:       lower.PrincipalKind{Model: rec.KindModel, Static: rec.KindStatic},
		Incomplete: rec.Incomplete,
	}
	if rec.CE != nil {
		target, err := decodeRow(rec.CE.Target)
		if err != nil {
			return key, res, err
		}
		ce := &Counterexample{
			Principal:       rec.CE.Principal,
			PrincipalRef:    rec.CE.PrincipalRef,
			StaticPrincipal: rec.CE.StaticPrincipal,
			Target:          target,
		}
		for _, o := range rec.CE.Others {
			row, err := decodeRow(o)
			if err != nil {
				return key, res, err
			}
			ce.Others = append(ce.Others, row)
		}
		res.Counterexample = ce
	}
	return key, res, nil
}

// OpenVerdictDB opens (creating if absent) the verdict file at path and
// returns a Cache of DefaultCacheCapacity backed by it. Records load in
// file order through the cache's insert path, so when the file holds more
// verdicts than fit, the last-written ones stay. A torn tail is truncated;
// a file whose header is unrecognised is reset to empty rather than
// rejected — the store is a cache, and the worst a damaged one may cost is
// re-proving.
func OpenVerdictDB(path string) (*Cache, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	c := NewCache(DefaultCacheCapacity)
	if err := c.load(f); err != nil {
		f.Close()
		return nil, err
	}
	c.f = f
	return c, nil
}

// load reads f's intact records into c and leaves f positioned for the
// next append.
func (c *Cache) load(f *os.File) error {
	buf, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		_, err := f.Write([]byte(verdictMagic))
		return err
	}
	if len(buf) < len(verdictMagic) || string(buf[:len(verdictMagic)]) != verdictMagic {
		c.corrupt++
		return reset(f)
	}
	good, clean := wal.ScanFrames(buf, int64(len(verdictMagic)), func(payload []byte) bool {
		key, res, derr := decodeRecord(payload)
		if derr != nil {
			// The frame survived its checksum but the payload is not a
			// record we understand (version skew, bit rot inside a valid
			// CRC). Skip it; later records are still framed correctly.
			c.corrupt++
			return true
		}
		c.put(key, res)
		return true
	})
	if !clean {
		// Crash mid-append: drop the torn tail so the next append starts on
		// a frame boundary.
		c.corrupt++
		if err := f.Truncate(good); err != nil {
			return err
		}
	}
	_, err = f.Seek(0, io.SeekEnd)
	return err
}

// reset empties f down to a bare header.
func reset(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := f.Write([]byte(verdictMagic))
	return err
}

// appendRecord writes one record to the backing file. Writes are
// best-effort — a failure is remembered and reported by Close, never
// surfaced on the verification hot path. The caller holds c.mu.
func (c *Cache) appendRecord(key CacheKey, res Result) {
	payload, err := encodeRecord(key, res)
	if err == nil {
		_, err = c.f.Write(wal.EncodeFrame(payload))
	}
	if err != nil && c.writeErr == nil {
		c.writeErr = err
	}
}

// Corrupt reports the corrupt records skipped (or tails truncated) while
// loading the backing file. Nil-safe. Lookups are counted in Stats, not
// here.
func (c *Cache) Corrupt() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupt
}

// Close closes the backing file, returning the first append error if any
// write failed. Nil-safe; a no-op on an in-memory cache.
func (c *Cache) Close() error {
	if c == nil || c.f == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	werr := c.writeErr
	if err := c.f.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}
