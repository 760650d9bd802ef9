package blockserve_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"

	"dcode/internal/blockserve"
)

// FuzzServeRequest sends arbitrary bytes as one connection's request stream
// to a server backed by a small array. The wire decoder splits the stream the
// way the server must: every leading well-formed request frame gets exactly
// one response carrying its ID, in order, and at the first frame the decoder
// rejects — or a response where a request belongs, or a truncated tail — the
// server closes that connection without another word. A second connection,
// open for the whole run, must still be served after every input, and a
// panic anywhere in the server fails the target.
func FuzzServeRequest(f *testing.F) {
	seed := func(frs ...blockserve.Frame) []byte {
		var b []byte
		for _, fr := range frs {
			var err error
			if b, err = blockserve.AppendFrame(b, fr); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	// Writes and reads whose end overflows int64, or that start before the
	// volume.
	f.Add(seed(blockserve.Frame{Type: blockserve.OpWrite, ID: 1, Off: math.MaxInt64 - 10, Data: make([]byte, 16)}))
	f.Add(seed(blockserve.Frame{Type: blockserve.OpWrite, ID: 2, Off: -1, Data: []byte("x")}))
	f.Add(seed(blockserve.Frame{Type: blockserve.OpRead, ID: 3, Off: math.MaxInt64 - 10, Count: 16}))
	// Well-formed traffic, pipelined.
	f.Add(seed(
		blockserve.Frame{Type: blockserve.OpWrite, ID: 4, Off: 100, Data: []byte("hello")},
		blockserve.Frame{Type: blockserve.OpRead, ID: 5, Off: 100, Count: 5, Flags: blockserve.FlagTrace, Trace: 7, Span: 8},
		blockserve.Frame{Type: blockserve.OpStatus, ID: 6},
		blockserve.Frame{Type: blockserve.OpFlush, ID: 7},
		blockserve.Frame{Type: blockserve.OpRebuild, ID: 8, Off: 2},
	))
	// Malformed streams: an absurd length after a good frame, a response
	// where a request belongs, a length below the header, a truncated frame.
	f.Add(append(seed(blockserve.Frame{Type: blockserve.OpStatus, ID: 9}), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(seed(blockserve.Frame{Type: blockserve.RespOK, ID: 10}))
	f.Add([]byte{0, 0, 0, 3, 1})
	f.Add(seed(blockserve.Frame{Type: blockserve.OpWrite, ID: 11, Data: make([]byte, 64)})[:40])

	addr, _ := startServer(f, newTestArray(f), blockserve.Config{})
	keep, err := net.Dial("tcp", addr)
	if err != nil {
		f.Fatal(err)
	}
	defer keep.Close()
	var keepID uint64

	f.Fuzz(func(t *testing.T, stream []byte) {
		var want []uint64
		for r := bytes.NewReader(stream); ; {
			fr, _, err := blockserve.ReadFrame(r, nil)
			if err != nil || fr.Type >= blockserve.RespOK {
				break
			}
			want = append(want, fr.ID)
		}

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The server may close the connection over a malformed prefix before
		// the stream is all sent, so the write and the half-close may fail;
		// the responses below are what is checked.
		_, _ = conn.Write(stream)
		_ = conn.(*net.TCPConn).CloseWrite()
		var got []uint64
		for {
			fr, _, err := blockserve.ReadFrame(conn, nil)
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				break // the server closed the connection
			}
			if err != nil {
				t.Fatalf("reading responses: %v", err)
			}
			if fr.Type != blockserve.RespOK && fr.Type != blockserve.RespErr {
				t.Fatalf("response of type 0x%02x", fr.Type)
			}
			got = append(got, fr.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("responses carry IDs %v, want one per well-formed request %v", got, want)
		}

		keepID++
		if err := keep.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := blockserve.WriteFrame(keep, nil, blockserve.Frame{Type: blockserve.OpStatus, ID: keepID}); err != nil {
			t.Fatal(err)
		}
		if fr, _, err := blockserve.ReadFrame(keep, nil); err != nil || fr.Type != blockserve.RespOK || fr.ID != keepID {
			t.Fatalf("the other connection's STATUS: type 0x%02x id %d err %v, want OK id %d", fr.Type, fr.ID, err, keepID)
		}
	})
}
