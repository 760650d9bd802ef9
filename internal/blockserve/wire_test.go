package blockserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: OpRead, ID: 1, Off: 4096, Count: 512},
		{Type: OpWrite, ID: 1<<64 - 1, Off: -1, Data: []byte("payload")},
		{Type: OpFlush, ID: 7},
		{Type: OpStatus},
		{Type: OpRebuild, ID: 9, Off: 3},
		{Type: RespOK, ID: 42, Off: 1 << 40, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: RespErr, ID: 3, Data: []byte("blockdev: device failed")},
	}
	var wire bytes.Buffer
	var wbuf []byte
	for _, f := range frames {
		var err error
		wbuf, err = WriteFrame(&wire, wbuf, f)
		if err != nil {
			t.Fatalf("WriteFrame(%+v): %v", f, err)
		}
	}
	var rbuf []byte
	for i, want := range frames {
		got, buf, err := ReadFrame(&wire, rbuf)
		rbuf = buf
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || got.Off != want.Off || got.Count != want.Count {
			t.Fatalf("frame %d: header mismatch: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("frame %d: payload mismatch: %d vs %d bytes", i, len(got.Data), len(want.Data))
		}
	}
	if _, _, err := ReadFrame(&wire, rbuf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsBadInput(t *testing.T) {
	encode := func(f Frame) []byte {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated length", []byte{0, 0}, io.ErrUnexpectedEOF},
		{"length below header", binary.BigEndian.AppendUint32(nil, headerLen-1), ErrMalformed},
		{"length above MaxFrame", binary.BigEndian.AppendUint32(nil, MaxFrame+1), ErrFrameTooLarge},
		{"truncated header", binary.BigEndian.AppendUint32(nil, headerLen)[:6], io.ErrUnexpectedEOF},
		{"truncated body", encode(Frame{Type: OpWrite, Data: []byte("abcdef")})[:headerLen+4+2], io.ErrUnexpectedEOF},
		{"unknown type", func() []byte {
			b := encode(Frame{Type: OpRead})
			b[4] = 0x7F
			return b
		}(), ErrMalformed},
		{"zero type", func() []byte {
			b := encode(Frame{Type: OpRead})
			b[4] = 0
			return b
		}(), ErrMalformed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.in), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestFrameTraceExtension pins the wire extension: a frame carrying a trace
// context round-trips it, and its encoding is exactly the v1 encoding plus
// the 17-byte extension block — so a peer that predates the extension sees
// only an unknown type bit, never a shifted payload.
func TestFrameTraceExtension(t *testing.T) {
	want := Frame{
		Type: OpWrite, Flags: FlagTrace, ID: 7, Off: 4096,
		Trace: 0xDEADBEEFCAFEF00D, Span: 0x0123456789ABCDEF,
		Data: []byte("payload"),
	}
	b, err := AppendFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	plain := want
	plain.Flags, plain.Trace, plain.Span = 0, 0, 0
	pb, err := AppendFrame(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(pb)+1+16 {
		t.Fatalf("extension adds %d bytes, want 17", len(b)-len(pb))
	}
	if b[4]&FlagExt == 0 {
		t.Fatalf("type byte 0x%02x missing FlagExt", b[4])
	}
	got, _, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Flags != want.Flags || got.Trace != want.Trace ||
		got.Span != want.Span || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if got.Type&FlagExt != 0 {
		t.Fatalf("decoded Type 0x%02x still carries FlagExt", got.Type)
	}
}

// TestFrameExtensionCompat exercises both compatibility directions: a v1
// frame decodes with zero Flags, and a frame whose extension a decoder does
// not recognize fails loudly instead of misparsing the payload.
func TestFrameExtensionCompat(t *testing.T) {
	// Old writer → new reader: no ext bit, zero flags.
	b, err := AppendFrame(nil, Frame{Type: OpRead, ID: 3, Off: 8, Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != 0 || got.Trace != 0 || got.Span != 0 {
		t.Fatalf("v1 frame decoded with extension state: %+v", got)
	}

	ext, err := AppendFrame(nil, Frame{Type: OpRead, Flags: FlagTrace, Trace: 1, Span: 2})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		in := mutate(append([]byte(nil), ext...))
		if _, _, err := ReadFrame(bytes.NewReader(in), nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
	corrupt("unknown flag bit", func(b []byte) []byte {
		b[4+headerLen] |= 0x80
		return b
	})
	corrupt("zero flags byte", func(b []byte) []byte {
		b[4+headerLen] = 0
		return b
	})
	corrupt("ext bit without flags byte", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b, headerLen)
		return b[:4+headerLen]
	})
	corrupt("truncated trace context", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b, headerLen+1+8)
		return b[:4+headerLen+1+8]
	})
	if _, err := AppendFrame(nil, Frame{Type: OpRead, Flags: 0x82}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendFrame with unknown flags: err = %v, want ErrMalformed", err)
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	_, err := AppendFrame(nil, Frame{Type: OpWrite, Data: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// refAppendFrame and refReadFrame are the codec as it stood before the header
// and the payload were split: one contiguous encode, one whole-frame read
// decoded in place. They are the oracle for wire compatibility — whatever the
// split codec sends must be byte for byte what this encoder produced, and it
// must accept exactly what this decoder accepted.
func refAppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Data) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	if f.Flags&^FlagTrace != 0 {
		return dst, ErrMalformed
	}
	n := headerLen + extLen(f.Flags) + len(f.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	t := f.Type
	if f.Flags != 0 {
		t |= FlagExt
	}
	dst = append(dst, t)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Off))
	dst = binary.BigEndian.AppendUint32(dst, f.Count)
	if f.Flags != 0 {
		dst = append(dst, f.Flags)
		if f.Flags&FlagTrace != 0 {
			dst = binary.BigEndian.AppendUint64(dst, f.Trace)
			dst = binary.BigEndian.AppendUint64(dst, f.Span)
		}
	}
	return append(dst, f.Data...), nil
}

func refReadFrame(r io.Reader) (Frame, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(lb[:])
	if n < headerLen {
		return Frame{}, ErrMalformed
	}
	if n > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, noEOF(err)
	}
	f := Frame{
		Type:  buf[0] &^ FlagExt,
		ID:    binary.BigEndian.Uint64(buf[1:9]),
		Off:   int64(binary.BigEndian.Uint64(buf[9:17])),
		Count: binary.BigEndian.Uint32(buf[17:21]),
	}
	if !validType(f.Type) {
		return Frame{}, ErrMalformed
	}
	body := headerLen
	if buf[0]&FlagExt != 0 {
		if n < uint32(headerLen+1) {
			return Frame{}, ErrMalformed
		}
		f.Flags = buf[headerLen]
		if f.Flags == 0 || f.Flags&^FlagTrace != 0 {
			return Frame{}, ErrMalformed
		}
		body += extLen(f.Flags)
		if n < uint32(body) {
			return Frame{}, ErrMalformed
		}
		if f.Flags&FlagTrace != 0 {
			f.Trace = binary.BigEndian.Uint64(buf[headerLen+1 : headerLen+9])
			f.Span = binary.BigEndian.Uint64(buf[headerLen+9 : headerLen+17])
		}
	}
	if int(n) > body {
		f.Data = buf[body:n]
	}
	return f, nil
}

// readSplit decodes one frame the way the data path does: header through
// connection scratch, then the payload wherever the caller wants it.
func readSplit(r io.Reader) (Frame, error) {
	var hdr [MaxHeader]byte
	f, n, err := ReadHeader(r, &hdr)
	if err != nil || n == 0 {
		return f, err
	}
	f.Data = make([]byte, n)
	if _, err := io.ReadFull(r, f.Data); err != nil {
		return Frame{}, noEOF(err)
	}
	return f, nil
}

func sameFrame(a, b Frame) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.ID == b.ID && a.Off == b.Off &&
		a.Count == b.Count && a.Trace == b.Trace && a.Span == b.Span && bytes.Equal(a.Data, b.Data)
}

// TestWriterMatchesReferenceEncoder: for every frame shape, valid or not,
// the contiguous encoder and the vectored Writer — payload in Data, in the
// tail, or split across both — agree with the reference encoder on the bytes
// or on the refusal.
func TestWriterMatchesReferenceEncoder(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 300)
	var fw Writer // reused across frames, as a connection reuses it
	for _, f := range []Frame{
		{Type: OpRead, ID: 1, Off: 4096, Count: 512},
		{Type: OpWrite, ID: 1<<64 - 1, Off: -1, Data: data},
		{Type: OpWrite, Flags: FlagTrace, ID: 7, Trace: 0xDEADBEEF, Span: 0xF00D, Data: data[:1]},
		{Type: OpFlush, Flags: FlagTrace, Trace: 1, Span: 2},
		{Type: RespOK, ID: 42, Off: 1 << 40, Count: Caps, Data: []byte(`{"size":1}`)},
		{Type: RespErr, ID: 3, Data: []byte("blockdev: device failed")},
		{Type: OpRead, Flags: 0x82},             // unknown extension flag
		{Type: OpRead, Flags: FlagTrace | 0x10}, // known plus unknown
	} {
		want, wantErr := refAppendFrame(nil, f)
		got, err := AppendFrame(nil, f)
		if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("AppendFrame(%+v) = %x, %v; reference %x, %v", f, got, err, want, wantErr)
		}
		for _, cut := range []int{0, len(f.Data) / 2, len(f.Data)} {
			var wire bytes.Buffer
			split := f
			split.Data = f.Data[:cut]
			err := fw.WriteFrame(&wire, split, f.Data[cut:cut+(len(f.Data)-cut)/2], f.Data[cut+(len(f.Data)-cut)/2:])
			if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(wire.Bytes(), want)) {
				t.Fatalf("Writer(%+v, cut %d) = %x, %v; reference %x, %v", f, cut, wire.Bytes(), err, want, wantErr)
			}
		}
	}
	big := make([]byte, MaxPayload/2+1)
	if err := fw.WriteFrame(io.Discard, Frame{Type: OpWrite, Data: big}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Writer with %d payload bytes: err = %v, want ErrFrameTooLarge", 2*len(big), err)
	}
}

// FuzzWireFrame is a differential fuzz of the split codec against the
// reference one. On arbitrary input the header-then-payload decoder (and
// ReadFrame over it) never panics, accepts exactly what the reference
// accepts, and yields the same frame having consumed the same bytes; and any
// frame that decodes re-encodes — contiguously and through a Writer — to
// exactly the bytes consumed, so the codec cannot silently lose or invent
// wire bytes.
func FuzzWireFrame(f *testing.F) {
	seed := func(fr Frame) []byte {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(Frame{Type: OpRead, ID: 1, Off: 4096, Count: 512}))
	f.Add(seed(Frame{Type: OpWrite, ID: 2, Off: 0, Data: []byte("hello")}))
	f.Add(seed(Frame{Type: RespErr, ID: 3, Data: []byte("boom")}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})           // absurd length prefix
	f.Add(binary.BigEndian.AppendUint32(nil, 5))    // below header
	f.Add(append(seed(Frame{Type: OpFlush}), 0xAA)) // trailing garbage
	f.Add(seed(Frame{Type: OpStatus})[:7])          // truncated header
	f.Add(seed(Frame{Type: OpRead, Flags: FlagTrace, ID: 4, Trace: 0xFEED, Span: 0xBEEF}))
	f.Add(seed(Frame{Type: OpWrite, Flags: FlagTrace, Trace: 1, Span: 2, Data: []byte("tx")}))
	f.Add(func() []byte { // ext bit set but flags byte truncated away
		b := seed(Frame{Type: OpRead, Flags: FlagTrace, Trace: 9, Span: 9})
		binary.BigEndian.PutUint32(b, headerLen)
		return b[:4+headerLen]
	}())

	f.Fuzz(func(t *testing.T, in []byte) {
		refIn := bytes.NewReader(in)
		want, wantErr := refReadFrame(refIn)
		splitIn := bytes.NewReader(in)
		got, err := readSplit(splitIn)
		whole, _, wholeErr := ReadFrame(bytes.NewReader(in), nil)
		if (err != nil) != (wantErr != nil) || (wholeErr != nil) != (wantErr != nil) {
			t.Fatalf("acceptance differs: reference %v, header-then-payload %v, ReadFrame %v", wantErr, err, wholeErr)
		}
		if wantErr != nil {
			return
		}
		if !sameFrame(got, want) || !sameFrame(whole, want) {
			t.Fatalf("decoded frames differ:\nreference %+v\nsplit     %+v\nReadFrame %+v", want, got, whole)
		}
		if splitIn.Len() != refIn.Len() {
			t.Fatalf("split decoder left %d bytes unread, reference %d", splitIn.Len(), refIn.Len())
		}
		consumed := in[:len(in)-refIn.Len()]
		re, err := AppendFrame(nil, got)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", got, err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode mismatch: read a %d-byte frame, encoded %d different bytes", len(consumed), len(re))
		}
		var wire bytes.Buffer
		var fw Writer
		hdrOnly := got
		hdrOnly.Data = nil
		if err := fw.WriteFrame(&wire, hdrOnly, got.Data); err != nil || !bytes.Equal(wire.Bytes(), consumed) {
			t.Fatalf("Writer re-encode mismatch (err %v): %d bytes for a %d-byte frame", err, wire.Len(), len(consumed))
		}
	})
}
