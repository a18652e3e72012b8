// Package replica is the primary/follower replication subsystem: the
// primary ships durable write-ahead-log frames over TCP, and followers
// mirror them into their own log and apply them through the store recovery
// path, so a follower's state is always byte-identical to a committed
// prefix of the primary's history.
//
// Topology and protocol:
//
//	primary wal.Log ──Tail──► Server ──TCP──► Follower ──AppendRaw──► follower wal.Log
//	                                              └──Apply──► follower store.DB
//
// A follower connects and names the first LSN it needs. If that LSN still
// lives in the primary's log, the server streams frames from there; if
// compaction folded it into a snapshot, the server sends the snapshot first
// (bootstrap) and streams from the compaction cut. Only durable records are
// ever shipped — a frame the primary could lose in a crash never reaches a
// follower, so follower state never outruns the primary's committed
// history. Heartbeats carry the primary's durable watermark and the
// follower's byte backlog; acks flow back so the primary can report per-
// follower lag.
package replica

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Wire format. The handshake is one JSON line in each direction; the rest
// of the stream is binary messages, each a one-byte kind plus payload:
//
//	'f' + [4B len][4B CRC32C][payload]   a WAL frame, byte-identical to disk
//	'h' + [8B durable LSN][8B backlog]   primary → follower heartbeat
//	'a' + [8B applied LSN][8B durable]   follower → primary ack
const (
	msgFrame     = 'f'
	msgHeartbeat = 'h'
	msgAck       = 'a'
)

// maxFrameLen bounds a single shipped frame; mirrors the WAL's own sanity
// bound on record length.
const maxFrameLen = 64 << 20

// handshake is the follower's opening request.
type handshake struct {
	// From is the first LSN the follower needs (its mirrored log's last
	// LSN + 1); 0 or 1 requests the full history.
	From uint64 `json:"from"`
}

// handshakeReply is the primary's answer.
type handshakeReply struct {
	// Mode is "stream", "snapshot", or "error".
	Mode string `json:"mode"`
	// LSN is the state the snapshot corresponds to: applying it leaves the
	// follower at exactly this LSN (snapshot mode only).
	LSN uint64 `json:"lsn,omitempty"`
	// Boundary is the snapshot's segment boundary; the follower seeds its
	// own log directory with the snapshot under this index.
	Boundary uint64 `json:"boundary,omitempty"`
	// Size is the snapshot's byte length; the raw bytes follow the reply
	// line (snapshot mode only).
	Size int64 `json:"size,omitempty"`
	// Error explains a refused handshake (error mode only).
	Error string `json:"error,omitempty"`
}

// writeJSONLine sends one newline-terminated JSON value.
func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// maxHandshakeLine bounds a handshake line, newline included.
const maxHandshakeLine = 1 << 16

// readJSONLine decodes one newline-terminated JSON value from a buffered
// reader. The peer is untrusted: reading stops with an error once the line
// passes maxHandshakeLine, so at most maxHandshakeLine+1 bytes are
// consumed whether or not a newline ever arrives.
func readJSONLine(r *bufio.Reader, v any) error {
	var line []byte
	for {
		b, err := r.ReadByte()
		if err != nil {
			return err
		}
		line = append(line, b)
		if len(line) > maxHandshakeLine {
			return fmt.Errorf("replica: handshake line longer than %d bytes", maxHandshakeLine)
		}
		if b == '\n' {
			return json.Unmarshal(line, v)
		}
	}
}

// writeFrameMsg ships one WAL frame.
func writeFrameMsg(w io.Writer, frame []byte) error {
	if _, err := w.Write([]byte{msgFrame}); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// writeU64Msg ships a heartbeat or ack: kind plus two 64-bit values.
func writeU64Msg(w io.Writer, kind byte, a, b uint64) error {
	var buf [17]byte
	buf[0] = kind
	binary.LittleEndian.PutUint64(buf[1:9], a)
	binary.LittleEndian.PutUint64(buf[9:17], b)
	_, err := w.Write(buf[:])
	return err
}

// readU64Pair reads the two 64-bit values of a heartbeat or ack body.
func readU64Pair(r io.Reader) (a, b uint64, err error) {
	var buf [16]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint64(buf[8:16]), nil
}

// readFrameBody reads a shipped WAL frame after its 'f' kind byte,
// returning the full frame bytes (header included) ready for AppendRaw.
func readFrameBody(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxFrameLen {
		return nil, fmt.Errorf("replica: implausible frame length %d", n)
	}
	frame := make([]byte, 8+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[8:]); err != nil {
		return nil, err
	}
	return frame, nil
}
