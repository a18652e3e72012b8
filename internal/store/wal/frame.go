package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Exported record framing, shared with the persistent verdict store
// (internal/verify). The verdict store is a different file format (its own
// magic header, its own payload schema) but deliberately reuses the WAL's
// frame layout — [4B little-endian payload length][4B CRC32C(payload)]
// [payload] — so both sides share one torn-tail discipline and one checksum
// convention.

// FrameOverhead is the number of framing bytes preceding each payload.
const FrameOverhead = frameSize

// EncodeFrame wraps payload in the record frame: length, CRC32C, then the
// payload bytes.
func EncodeFrame(payload []byte) []byte {
	return sealFrame(append(make([]byte, frameSize, frameSize+len(payload)), payload...))
}

// sealFrame fills in the header of a frame whose payload b already holds
// from offset frameSize on.
func sealFrame(b []byte) []byte {
	payload := b[frameSize:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return b
}

// ScanFrames walks framed records in buf starting at offset start, calling
// fn with each well-formed payload. It returns the byte offset just past
// the last accepted frame and whether the whole buffer was consumed. A
// frame that is short, whose length is implausible, whose checksum fails,
// or whose payload fn rejects (returns false) marks the torn tail:
// scanning stops there (clean=false) without an error or a panic, and the
// caller truncates at good. WAL segments and the verdict store share this
// recovery discipline.
func ScanFrames(buf []byte, start int64, fn func(payload []byte) bool) (good int64, clean bool) {
	off := start
	for {
		rest := buf[off:]
		if len(rest) == 0 {
			return off, true
		}
		if len(rest) < frameSize {
			return off, false
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxRecordLen || frameSize+n > int64(len(rest)) {
			return off, false
		}
		payload := rest[frameSize : frameSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, false
		}
		if !fn(payload) {
			return off, false
		}
		off += frameSize + n
	}
}
