package replica

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// readLineCounted runs readJSONLine over data into v and returns how many
// bytes it consumed (read from the source and not left buffered) and its
// error.
func readLineCounted(data []byte, v any) (consumed int, err error) {
	src := &countingReader{r: bytes.NewReader(data)}
	br := bufio.NewReader(src)
	err = readJSONLine(br, v)
	return src.n - br.Buffered(), err
}

// TestReadJSONLineBounded feeds the handshake reader lines past its limit,
// with and without a newline: each is refused after consuming at most
// maxHandshakeLine+1 bytes, so a peer cannot grow the buffer at will.
func TestReadJSONLineBounded(t *testing.T) {
	long := bytes.Repeat([]byte{'x'}, 4*maxHandshakeLine)
	for name, data := range map[string][]byte{
		"newline far past the limit": append(append([]byte{}, long...), '\n'),
		"no newline":                 long,
		"one byte past the limit":    append(bytes.Repeat([]byte{' '}, maxHandshakeLine), '\n'),
	} {
		var h handshake
		consumed, err := readLineCounted(data, &h)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if consumed > maxHandshakeLine+1 {
			t.Errorf("%s: consumed %d bytes, limit %d", name, consumed, maxHandshakeLine+1)
		}
	}

	// A line of exactly the limit, newline included, is still accepted.
	line := []byte(`{"from":7}`)
	line = append(line, bytes.Repeat([]byte{' '}, maxHandshakeLine-len(line)-1)...)
	line = append(line, '\n')
	var h handshake
	if _, err := readLineCounted(line, &h); err != nil || h.From != 7 {
		t.Fatalf("line at the limit: from=%d err=%v", h.From, err)
	}
}

// fakePrimary answers every follower handshake with reply followed by
// body, then closes the connection.
func fakePrimary(t *testing.T, reply string, body []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var h handshake
			if readJSONLine(bufio.NewReader(conn), &h) == nil {
				conn.Write([]byte(reply + "\n"))
				conn.Write(body)
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestFollowerRejectsBadSnapshotSize points a follower at a primary whose
// snapshot reply lies about its size: a negative size is an error, not a
// panic, and a huge one fails on the bytes that are missing instead of
// allocating what it claims.
func TestFollowerRejectsBadSnapshotSize(t *testing.T) {
	for _, tc := range []struct {
		reply, want string
	}{
		{`{"mode":"snapshot","lsn":1,"boundary":1,"size":-1}`, "negative bootstrap snapshot size"},
		{`{"mode":"snapshot","lsn":1,"boundary":1,"size":1125899906842624}`, "reading bootstrap snapshot"},
	} {
		f, err := Open(t.TempDir(), fakePrimary(t, tc.reply, []byte("abc")), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(f.Status().LastError, tc.want) {
			if time.Now().After(deadline) {
				t.Fatalf("reply %s: want error %q, status %+v", tc.reply, tc.want, f.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzHandshake decodes arbitrary bytes, and the same bytes repeated past
// the line limit, as either handshake message. It must never panic, and
// it must never consume more than maxHandshakeLine+1 bytes.
func FuzzHandshake(f *testing.F) {
	for _, v := range []any{
		handshake{From: 1},
		handshake{From: 1 << 40},
		handshakeReply{Mode: "stream"},
		handshakeReply{Mode: "snapshot", LSN: 41, Boundary: 42, Size: 1 << 20},
		handshakeReply{Mode: "error", Error: "follower history diverged"},
	} {
		var buf bytes.Buffer
		if err := writeJSONLine(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > 0 {
			// data repeated past the limit: a line that never ends in time.
			inputs = append(inputs, bytes.Repeat(data, maxHandshakeLine/len(data)+2))
		}
		for _, in := range inputs {
			for _, v := range []any{&handshake{}, &handshakeReply{}} {
				if consumed, _ := readLineCounted(in, v); consumed > maxHandshakeLine+1 {
					t.Fatalf("consumed %d bytes, limit %d", consumed, maxHandshakeLine+1)
				}
			}
		}
	})
}
