// Package blockserve serves a block volume — an *raid.Array or any single
// block device — to remote clients over TCP, speaking a small length-prefixed
// binary protocol. It is the network front half of the engine: cmd/raidserve
// runs it in front of an array (or a single column file in -column mode), and
// blockdev.Remote speaks the same protocol back as a client-side Device, so
// array columns can live on remote nodes.
//
// This file defines the wire format. Every message, request or response, is
// one frame:
//
//	uint32  length of the rest of the frame (big endian)
//	uint8   type (request op or response status; bit 0x40 = FlagExt marks an
//	        extension block after the fixed header)
//	uint64  request id (echoed verbatim in the response; clients may pipeline
//	        multiple outstanding ids on one connection)
//	int64   off — byte offset for READ/WRITE, the disk index for REBUILD,
//	        and the volume size in a STATUS response
//	uint32  count — requested byte count for READ; len(data) elsewhere, and
//	        the capability bitmask (CapTrace, ...) in a STATUS response
//	[ext]   optional extension block, present iff the type byte carries
//	        FlagExt: one flags byte, then one field per set flag bit in bit
//	        order. FlagTrace adds 16 bytes: uint64 trace ID + uint64 parent
//	        span ID (big endian). A zero flags byte or an unknown flag bit is
//	        malformed — the format stays closed under re-encoding, which is
//	        what lets FuzzWireFrame pin exact round-trips.
//	[]byte  data — WRITE payload, READ response payload, STATUS response
//	        JSON, or the error message of an ERR response
//
// Compatibility: a peer that predates the extension treats FlagExt as an
// unknown type and drops the connection, so extensions are only sent to peers
// that advertised the matching capability — the server announces CapTrace in
// every STATUS response's Count field (old servers leave it zero, old clients
// never read it), and blockdev.Remote stamps trace extensions only after its
// DialRemote STATUS probe saw the bit. The server never sends extension
// frames in responses, so old clients are safe against new servers too.
//
// The fixed header makes truncated, oversized and garbage frames cheap to
// reject: length is bounded by MaxFrame before any allocation, and a frame
// shorter than the header is malformed. FuzzWireFrame pins both properties.
//
// It also lets the codec stop at the payload. The data path never holds a
// whole frame: ReadHeader decodes everything up to the payload through a few
// bytes of scratch the connection owns, and the payload is then received
// directly where it is wanted; a Writer sends the header and the payload's
// buffers, wherever they are, in one vectored write. ReadFrame, WriteFrame
// and AppendFrame are the contiguous forms over the same header code, for
// callers that have nowhere better to put a payload.
package blockserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Request ops.
const (
	OpRead    uint8 = 1 // read Count bytes at Off
	OpWrite   uint8 = 2 // write Data at Off
	OpFlush   uint8 = 3 // persist outstanding writes
	OpStatus  uint8 = 4 // fetch the volume's status JSON (response Off = size)
	OpRebuild uint8 = 5 // rebuild disk Off (array backends only)
)

// Response types.
const (
	RespOK  uint8 = 0x80 // success; Data carries the payload if any
	RespErr uint8 = 0x81 // failure; Data carries the error message
)

// FlagExt is the type-byte bit marking an extension block between the fixed
// header and the data. It is outside every defined type value, so a peer
// without extension support rejects the frame as an unknown type instead of
// misparsing the payload.
const FlagExt uint8 = 0x40

// Extension flag bits (the first byte of an extension block).
const (
	// FlagTrace marks a 16-byte trace context: trace ID + parent span ID.
	FlagTrace uint8 = 0x01
)

// Capability bits a server advertises in the Count field of its STATUS
// responses. A client must not send a frame extension the server did not
// advertise the capability for.
const (
	// CapTrace: the server understands FlagTrace extensions on requests.
	CapTrace uint32 = 1 << 0
)

// Caps is the capability set this implementation's server advertises.
const Caps = CapTrace

// Frame size limits. MaxFrame bounds a frame's variable part so a malicious
// or corrupt length prefix cannot force a huge allocation; it also caps the
// payload of one READ/WRITE, which keeps per-request buffers bounded.
const (
	headerLen = 1 + 8 + 8 + 4 // type + id + off + count
	maxExtLen = 1 + 16        // flags byte + trace context
	extOff    = 4 + headerLen // where the extension block starts in an encoded header
	// MaxHeader is the longest encoded header: length prefix, fixed header
	// and a maximal extension block. Everything after it is payload.
	MaxHeader = extOff + maxExtLen
	// MaxPayload is the largest READ/WRITE payload a single frame carries.
	// It is a fixed constant (not derived from MaxFrame) so that a maximal
	// non-extended frame is exactly the old protocol's frame bound — peers
	// that predate the extension still accept everything we send them.
	MaxPayload = 8 << 20
	MaxFrame   = headerLen + maxExtLen + MaxPayload
)

// Wire-format errors.
var (
	ErrFrameTooLarge = errors.New("blockserve: frame exceeds MaxFrame")
	ErrMalformed     = errors.New("blockserve: malformed frame")
)

// Frame is one decoded protocol message; see the package comment for the
// field meanings per type. Flags is the extension flags byte (0 = no
// extension block on the wire); Trace and Span are the trace context carried
// by a FlagTrace extension. Type never carries FlagExt — the codec folds it
// in on encode and strips it on decode.
type Frame struct {
	Type  uint8
	Flags uint8
	ID    uint64
	Off   int64
	Count uint32
	Trace uint64
	Span  uint64
	Data  []byte
}

// validType reports whether t is a known request op or response type.
func validType(t uint8) bool {
	return (t >= OpRead && t <= OpRebuild) || t == RespOK || t == RespErr
}

// extLen returns the encoded size of the extension block flags describes.
func extLen(flags uint8) int {
	if flags == 0 {
		return 0
	}
	n := 1
	if flags&FlagTrace != 0 {
		n += 16
	}
	return n
}

// putHeader encodes f's length prefix, fixed header and extension block for
// a payload of n bytes into hdr and returns the encoded prefix of it. It is
// the one header encoder: AppendFrame and Writer both go through it. Flag
// bits outside the defined set are rejected — an encoder must not emit what
// no decoder accepts.
func putHeader(hdr *[MaxHeader]byte, f Frame, n int) ([]byte, error) {
	if n > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	if f.Flags&^FlagTrace != 0 {
		return nil, fmt.Errorf("%w: unknown extension flags 0x%02x", ErrMalformed, f.Flags)
	}
	end := extOff + extLen(f.Flags)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(end-4+n))
	hdr[4] = f.Type
	binary.BigEndian.PutUint64(hdr[5:13], f.ID)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(f.Off))
	binary.BigEndian.PutUint32(hdr[21:25], f.Count)
	if f.Flags != 0 {
		hdr[4] |= FlagExt
		ext := hdr[extOff:]
		ext[0] = f.Flags
		if f.Flags&FlagTrace != 0 {
			binary.BigEndian.PutUint64(ext[1:9], f.Trace)
			binary.BigEndian.PutUint64(ext[9:17], f.Span)
		}
	}
	return hdr[:end], nil
}

// AppendFrame appends the encoded frame to dst and returns the result: the
// contiguous form of what Writer sends, for small frames and for tests.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	var hdr [MaxHeader]byte
	h, err := putHeader(&hdr, f, len(f.Data))
	if err != nil {
		return dst, err
	}
	return append(append(dst, h...), f.Data...), nil
}

// WriteFrame encodes f into buf (growing it as needed) and writes it to w in
// one call, returning the possibly-grown buffer for reuse. It copies the
// payload; the data path uses a Writer, which does not.
func WriteFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf, err := AppendFrame(buf[:0], f)
	if err != nil {
		return buf, err
	}
	_, err = w.Write(buf)
	return buf, err
}

// Writer sends frames on one connection without copying their payloads: the
// header is encoded into scratch the Writer owns and goes out with the
// payload buffers in a single vectored write (one writev on a TCP
// connection). The scratch and the vector are reused, so a steady stream of
// frames does not allocate. One goroutine at a time may use a Writer; the
// payload buffers are only read, and not retained past the call.
type Writer struct {
	hdr  [MaxHeader]byte
	vec  [][]byte    // backing for bufs, grown to the longest payload vector
	bufs net.Buffers // what WriteTo consumes; a field because its receiver escapes
}

// WriteFrame writes f's header followed by f.Data and then every buffer of
// tail as the frame's payload — tail lets a gathered write pass its vector
// straight through.
func (fw *Writer) WriteFrame(w io.Writer, f Frame, tail ...[]byte) error {
	n := len(f.Data)
	for _, b := range tail {
		n += len(b)
	}
	h, err := putHeader(&fw.hdr, f, n)
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = w.Write(h)
		return err
	}
	fw.vec = append(fw.vec[:0], h)
	if len(f.Data) > 0 {
		fw.vec = append(fw.vec, f.Data)
	}
	fw.vec = append(fw.vec, tail...)
	fw.bufs = fw.vec
	_, err = fw.bufs.WriteTo(w)
	clear(fw.vec) // a partial write leaves references behind; drop them
	return err
}

// ReadHeader reads one frame's length prefix, fixed header and extension
// block from r through hdr — scratch the connection owns, so decoding does not
// allocate — and returns the frame with nil Data and the length of the
// payload that follows. The caller must consume exactly that many bytes from
// r, into wherever the payload is wanted, before the next ReadHeader. A
// length prefix above MaxFrame fails with ErrFrameTooLarge before anything
// is sized from it; one below the fixed header or the extension it
// announces, an unknown type or a non-canonical extension fails with
// ErrMalformed.
func ReadHeader(r io.Reader, hdr *[MaxHeader]byte) (f Frame, payload int, err error) {
	// Every well-formed frame is at least prefix + fixed header long, so both
	// arrive in one read; a stream that ends early is still judged by its
	// length prefix first, as a reader taking the prefix alone would.
	got, err := io.ReadFull(r, hdr[:extOff])
	if err != nil && got < 4 {
		return Frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < headerLen {
		return Frame{}, 0, fmt.Errorf("%w: length %d below header", ErrMalformed, n)
	}
	if n > MaxFrame {
		return Frame{}, 0, fmt.Errorf("%w: length %d", ErrFrameTooLarge, n)
	}
	if err != nil {
		return Frame{}, 0, err
	}
	f = Frame{
		Type:  hdr[4] &^ FlagExt,
		ID:    binary.BigEndian.Uint64(hdr[5:13]),
		Off:   int64(binary.BigEndian.Uint64(hdr[13:21])),
		Count: binary.BigEndian.Uint32(hdr[21:25]),
	}
	if !validType(f.Type) {
		return Frame{}, 0, fmt.Errorf("%w: unknown type 0x%02x", ErrMalformed, hdr[4])
	}
	body := headerLen
	if hdr[4]&FlagExt != 0 {
		if n < uint32(headerLen+1) {
			return Frame{}, 0, fmt.Errorf("%w: extension bit without flags byte", ErrMalformed)
		}
		// The one defined extension is also the longest, so min(rest of frame,
		// maxExtLen) is all of it in one read and never reaches into the
		// payload of a frame that passes the checks below.
		ext := hdr[extOff : extOff+min(int(n)-headerLen, maxExtLen)]
		if _, err := io.ReadFull(r, ext); err != nil {
			return Frame{}, 0, noEOF(err)
		}
		f.Flags = ext[0]
		// A zero flags byte under FlagExt would decode to a frame that
		// re-encodes without the extension; reject non-canonical encodings so
		// decode∘encode is the identity on the wire (FuzzWireFrame pins it).
		if f.Flags == 0 || f.Flags&^FlagTrace != 0 {
			return Frame{}, 0, fmt.Errorf("%w: extension flags 0x%02x", ErrMalformed, f.Flags)
		}
		body += extLen(f.Flags)
		if n < uint32(body) {
			return Frame{}, 0, fmt.Errorf("%w: length %d below extension", ErrMalformed, n)
		}
		if f.Flags&FlagTrace != 0 {
			f.Trace = binary.BigEndian.Uint64(ext[1:9])
			f.Span = binary.BigEndian.Uint64(ext[9:17])
		}
	}
	return f, int(n) - body, nil
}

// ReadFrame reads one whole frame from r, payload into buf: Data aliases buf
// when it fits, so the caller may pass a pooled buffer; the possibly-grown
// buffer is returned for reuse. It is ReadHeader for callers with nowhere
// better to put the payload.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [MaxHeader]byte
	f, n, err := ReadHeader(r, &hdr)
	if err != nil || n == 0 {
		return f, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, noEOF(err)
	}
	f.Data = buf
	return f, buf, nil
}

// noEOF turns the io.EOF of a read that began inside a frame into
// io.ErrUnexpectedEOF: only a stream that ends between frames ended cleanly.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
