package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary value codec is the one encoding of store values at every
// byte boundary: WAL records and snapshots. A value is a tag byte followed
// by its payload:
//
//	tagNull                         nil
//	tagInt    varint                int64
//	tagID     varint                ID
//	tagFloat  8B little-endian      float64 (IEEE-754 bits)
//	tagBool   1B, 0 or 1            bool
//	tagString uvarint length, bytes string
//	tagSet    uvarint count, values []Value
//	tagNone                         absent Optional
//	tagSome   value                 present Optional
//
// A document is a uvarint field count followed by (uvarint key length,
// key, value) per field, in strictly ascending key order and without the
// "id" field, which travels beside the document. Equal documents
// therefore encode to equal bytes.
const (
	tagNull byte = iota + 1
	tagInt
	tagID
	tagFloat
	tagBool
	tagString
	tagSet
	tagNone
	tagSome
)

// maxDepth bounds how deeply sets and Optionals nest, so a hostile input
// cannot drive the decoder's recursion without limit. Schema types nest
// two or three levels deep.
const maxDepth = 32

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendValue(b []byte, v Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return b, fmt.Errorf("store: value nested deeper than %d", maxDepth)
	}
	switch x := v.(type) {
	case nil:
		return append(b, tagNull), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt), x), nil
	case ID:
		return binary.AppendVarint(append(b, tagID), int64(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(x)), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	case string:
		return AppendString(append(b, tagString), x), nil
	case []Value:
		b = binary.AppendUvarint(append(b, tagSet), uint64(len(x)))
		for _, e := range x {
			var err error
			if b, err = appendValue(b, e, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case Optional:
		if !x.Present {
			return append(b, tagNone), nil
		}
		return appendValue(append(b, tagSome), x.Value, depth+1)
	}
	return b, fmt.Errorf("store: value %T cannot be serialised", v)
}

// AppendDoc appends the canonical encoding of d, skipping its "id" field.
func AppendDoc(b []byte, d Doc) ([]byte, error) {
	var buf [16]string
	keys := buf[:0]
	for k := range d {
		if k != "id" {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendString(b, k)
		var err error
		if b, err = appendValue(b, d[k], 0); err != nil {
			return b, fmt.Errorf("field %s: %w", k, err)
		}
	}
	return b, nil
}

// Decoder reads the codec from a byte slice. Errors are sticky: after the
// first, every read returns a zero value and Err reports that error.
type Decoder struct {
	b   []byte // unread input
	err error
}

// NewDecoder returns a Decoder reading b. Decoded strings are copies, so b
// may be reused once decoding is done.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) }

// fail records a decoding error unless one is already recorded, and drops
// the unread input so every later read fails too.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.fail("store: input truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("store: bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("store: bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a length or element count. Every counted unit takes at
// least one byte, so a count above the unread length is rejected before
// anything is allocated for it.
func (d *Decoder) count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail("store: count %d exceeds the %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// Str reads a string written by AppendString.
func (d *Decoder) Str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *Decoder) value(depth int) Value {
	if depth > maxDepth {
		d.fail("store: value nested deeper than %d", maxDepth)
		return nil
	}
	switch tag := d.Byte(); tag {
	case tagNull:
		return nil
	case tagInt:
		return d.Varint()
	case tagID:
		return ID(d.Varint())
	case tagFloat:
		if len(d.b) < 8 {
			d.fail("store: float truncated")
			return nil
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
		return f
	case tagBool:
		switch d.Byte() {
		case 0:
			return false
		case 1:
			return true
		}
		d.fail("store: bad bool")
		return nil
	case tagString:
		return d.Str()
	case tagSet:
		out := make([]Value, d.count())
		for i := range out {
			out[i] = d.value(depth + 1)
		}
		return out
	case tagNone:
		return None()
	case tagSome:
		return Some(d.value(depth + 1))
	default:
		d.fail("store: unknown value tag %#x", tag)
		return nil
	}
}

// Doc reads a document written by AppendDoc. Fields out of ascending
// order (so also duplicated ones) and an "id" field are rejected: the
// encoder never writes them.
func (d *Decoder) Doc() Doc {
	n := d.count()
	doc := make(Doc, min(n, 16)+1) // room for the id the caller adds
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Str()
		switch {
		case i > 0 && k <= prev:
			d.fail("store: field %q duplicated or out of order", k)
		case k == "id":
			d.fail("store: document carries an id field")
		}
		doc[k] = d.value(0)
		prev = k
	}
	if d.err != nil {
		return nil
	}
	return doc
}
