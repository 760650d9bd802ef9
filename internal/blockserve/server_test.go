package blockserve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/codes"
	"dcode/internal/raid"
	"dcode/internal/trace"
)

// startServer runs a Server on loopback and tears it down with the test.
func startServer(t testing.TB, backend blockserve.Backend, cfg blockserve.Config) (string, *blockserve.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(backend, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	})
	return ln.Addr().String(), srv
}

func TestServerReadWriteStatusFlush(t *testing.T) {
	addr, srv := startServer(t, blockdev.NewMem(1<<16), blockserve.Config{})
	dev, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	if dev.Size() != 1<<16 {
		t.Fatalf("Size() = %d, want %d (STATUS must carry the volume size)", dev.Size(), 1<<16)
	}
	want := bytes.Repeat([]byte{0x5A, 0xC3}, 2048)
	if _, err := dev.WriteAt(want, 4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := dev.ReadAt(got, 4096); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back different bytes than written")
	}
	if err := dev.Flush(); err != nil {
		t.Fatalf("Flush on a flushless backend should no-op, got %v", err)
	}
	doc, err := dev.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	var st struct {
		Size int64 `json:"size"`
	}
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatalf("default status document is not JSON: %v (%q)", err, doc)
	}
	if st.Size != 1<<16 {
		t.Fatalf("status size = %d, want %d", st.Size, 1<<16)
	}
	if err := dev.Rebuild(0); err == nil {
		t.Fatal("Rebuild on a non-array backend must fail")
	}

	snap := srv.Snapshot()
	if snap.Totals.Reads != 1 || snap.Totals.Writes != 1 || snap.Totals.Flushes != 1 {
		t.Fatalf("totals = %+v, want 1 read / 1 write / 1 flush", snap.Totals)
	}
	if snap.Totals.BytesOut != int64(len(want)) || snap.Totals.BytesIn != int64(len(want)) {
		t.Fatalf("byte totals = in %d / out %d, want %d both ways",
			snap.Totals.BytesIn, snap.Totals.BytesOut, len(want))
	}
}

// rebuildBackend records REBUILD dispatch so the test can see it arrive.
type rebuildBackend struct {
	*blockdev.MemDevice
	mu      sync.Mutex
	rebuilt []int
}

func (b *rebuildBackend) Rebuild(disk int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rebuilt = append(b.rebuilt, disk)
	return nil
}

func TestRebuildDispatch(t *testing.T) {
	backend := &rebuildBackend{MemDevice: blockdev.NewMem(4096)}
	addr, _ := startServer(t, backend, blockserve.Config{})
	dev, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Rebuild(3); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.rebuilt) != 1 || backend.rebuilt[0] != 3 {
		t.Fatalf("rebuilt = %v, want [3]", backend.rebuilt)
	}
}

func TestClientCapRejects(t *testing.T) {
	addr, srv := startServer(t, blockdev.NewMem(4096), blockserve.Config{MaxClients: 1})
	first, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// The Remote pools its connection, so the one client occupies the one
	// slot; a second mount must be rejected with the server's reason intact.
	_, err = blockdev.DialRemote(addr,
		blockdev.WithRetry(2, time.Millisecond),
		blockdev.WithRequestTimeout(time.Second))
	if err == nil {
		t.Fatal("second client admitted past MaxClients=1")
	}
	if !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("rejection reason lost: %v", err)
	}
	if snap := srv.Snapshot(); snap.Rejected == 0 {
		t.Fatalf("Rejected = %d, want > 0", snap.Rejected)
	}
}

func TestPipelinedRequestsOnOneConnection(t *testing.T) {
	mem := blockdev.NewMem(1 << 16)
	for i := int64(0); i < 4; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 512)
		if _, err := mem.WriteAt(buf, i*512); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := startServer(t, mem, blockserve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send all requests before reading any response: the ids must come back
	// matched to their payloads regardless of completion order.
	var wbuf []byte
	for i := uint64(0); i < 4; i++ {
		wbuf, err = blockserve.WriteFrame(conn, wbuf, blockserve.Frame{
			Type: blockserve.OpRead, ID: 100 + i, Off: int64(i) * 512, Count: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]byte{}
	var rbuf []byte
	for i := 0; i < 4; i++ {
		var f blockserve.Frame
		f, rbuf, err = blockserve.ReadFrame(conn, rbuf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != blockserve.RespOK || len(f.Data) != 512 {
			t.Fatalf("response %d: type 0x%02x, %d bytes", i, f.Type, len(f.Data))
		}
		seen[f.ID] = f.Data[0]
	}
	for i := uint64(0); i < 4; i++ {
		if seen[100+i] != byte(i+1) {
			t.Fatalf("id %d answered with fill byte %d, want %d", 100+i, seen[100+i], i+1)
		}
	}
}

// gatedBackend blocks every ReadAt until released, so tests can hold requests
// in flight deliberately.
type gatedBackend struct {
	*blockdev.MemDevice
	gate chan struct{}
}

func (b *gatedBackend) ReadAt(p []byte, off int64) (int, error) {
	<-b.gate
	return b.MemDevice.ReadAt(p, off)
}

func TestInflightAdmissionLimit(t *testing.T) {
	backend := &gatedBackend{MemDevice: blockdev.NewMem(1 << 16), gate: make(chan struct{})}
	addr, srv := startServer(t, backend, blockserve.Config{MaxInflight: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wbuf []byte
	for i := uint64(1); i <= 3; i++ {
		wbuf, err = blockserve.WriteFrame(conn, wbuf, blockserve.Frame{
			Type: blockserve.OpRead, ID: i, Count: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// With one slot, exactly one request may be in flight no matter how many
	// are pipelined; the reader goroutine is parked on the semaphore.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want 1", srv.Snapshot().Inflight)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := srv.Snapshot().Inflight; got != 1 {
		t.Fatalf("inflight grew to %d with MaxInflight=1", got)
	}
	close(backend.gate)
	var rbuf []byte
	for i := 0; i < 3; i++ {
		var f blockserve.Frame
		f, rbuf, err = blockserve.ReadFrame(conn, rbuf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != blockserve.RespOK {
			t.Fatalf("response %d: %q", i, f.Data)
		}
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	backend := &gatedBackend{MemDevice: blockdev.NewMem(1 << 16), gate: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(backend, blockserve.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := blockserve.WriteFrame(conn, nil, blockserve.Frame{
		Type: blockserve.OpRead, ID: 7, Count: 8,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the gated request, not abandon it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(backend.gate)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	// The drained request's response must have been written before the close.
	f, _, err := blockserve.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("response lost in drain: %v", err)
	}
	if f.Type != blockserve.RespOK || f.ID != 7 {
		t.Fatalf("drained response = %+v", f)
	}
	// Connections after drain are rejected with the reason.
	if _, err := blockdev.DialRemote(ln.Addr().String(),
		blockdev.WithRetry(1, 0), blockdev.WithRequestTimeout(time.Second)); err == nil {
		t.Fatal("connection admitted after Shutdown")
	}
}

// TestShutdownWaitsForConnectionGoroutines pins Shutdown's last promise: it
// returns only after every connection goroutine has exited. Clients that are
// still connected when the drain starts must all be unregistered, logged as
// departed and folded into the totals by the time Shutdown returns.
func TestShutdownWaitsForConnectionGoroutines(t *testing.T) {
	const clients = 8
	var (
		mu       sync.Mutex
		departed int
	)
	logf := func(format string, args ...any) {
		if strings.Contains(format, "disconnected") {
			mu.Lock()
			departed++
			mu.Unlock()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(blockdev.NewMem(1<<16), blockserve.Config{Logf: logf})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	for i := 0; i < clients; i++ {
		dev, err := blockdev.DialRemote(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		if _, err := dev.WriteAt(make([]byte, 64), int64(i)*64); err != nil {
			t.Fatal(err)
		}
	}
	if active := srv.Snapshot().Active; active != clients {
		t.Fatalf("active clients before Shutdown = %d, want %d", active, clients)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	snap := srv.Snapshot()
	mu.Lock()
	gone := departed
	mu.Unlock()
	if snap.Active != 0 || len(snap.Clients) != 0 {
		t.Errorf("after Shutdown: %d active, %d listed live; want none", snap.Active, len(snap.Clients))
	}
	if snap.Accepted != clients || gone != clients {
		t.Errorf("after Shutdown: %d accepted, %d departed; want %d of each", snap.Accepted, gone, clients)
	}
	if snap.Totals.Writes != clients {
		t.Errorf("after Shutdown: totals count %d writes, want %d", snap.Totals.Writes, clients)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
}

// TestSoakConcurrentClients hammers one server from many goroutine clients
// while others disconnect mid-stream without reading their responses; run
// under -race in CI. The surviving clients must see correct data and the
// server must drain cleanly afterwards.
func TestSoakConcurrentClients(t *testing.T) {
	const (
		clients  = 8
		opsEach  = 60
		elemSize = 512
	)
	mem := blockdev.NewMem(clients * opsEach * elemSize)
	addr, srv := startServer(t, mem, blockserve.Config{MaxInflight: 16})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if id%4 == 3 {
				// Rude client: pipeline a burst of writes, then vanish without
				// reading a single response.
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errs <- err
					return
				}
				var wbuf []byte
				for j := 0; j < opsEach; j++ {
					wbuf, err = blockserve.WriteFrame(conn, wbuf, blockserve.Frame{
						Type: blockserve.OpWrite, ID: uint64(j + 1),
						Off:  int64((id*opsEach + j) * elemSize),
						Data: bytes.Repeat([]byte{byte(id)}, elemSize),
					})
					if err != nil {
						break
					}
				}
				_ = conn.Close()
				return
			}
			dev, err := blockdev.DialRemote(addr)
			if err != nil {
				errs <- err
				return
			}
			defer dev.Close()
			buf := make([]byte, elemSize)
			got := make([]byte, elemSize)
			for j := 0; j < opsEach; j++ {
				off := int64((id*opsEach + j) * elemSize)
				for k := range buf {
					buf[k] = byte(id ^ j ^ k)
				}
				if _, err := dev.WriteAt(buf, off); err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", id, j, err)
					return
				}
				if _, err := dev.ReadAt(got, off); err != nil {
					errs <- fmt.Errorf("client %d read %d: %w", id, j, err)
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- fmt.Errorf("client %d op %d: data mismatch", id, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Snapshot()
	if snap.Totals.Errors != 0 {
		t.Fatalf("server recorded %d op errors", snap.Totals.Errors)
	}
	if snap.Accepted < clients {
		t.Fatalf("accepted = %d, want >= %d", snap.Accepted, clients)
	}
	// Departed clients' work must persist in the totals aggregate.
	if min := int64((clients - clients/4) * opsEach); snap.Totals.Writes < min {
		t.Fatalf("total writes = %d, want >= %d", snap.Totals.Writes, min)
	}
}

func TestSnapshotKeepsDepartedClients(t *testing.T) {
	addr, srv := startServer(t, blockdev.NewMem(4096), blockserve.Config{})
	dev, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	_ = dev.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never unregistered after client close")
		}
		time.Sleep(time.Millisecond)
	}
	snap := srv.Snapshot()
	if snap.Totals.Writes != 1 || snap.Totals.Admin == 0 {
		t.Fatalf("departed client's ops missing from totals: %+v", snap.Totals)
	}
	if len(snap.Clients) != 0 {
		t.Fatalf("live client list = %+v, want empty", snap.Clients)
	}
}

// linkedMem is a MemDevice that records the trace links the server threads
// into it, proving the LinkedBackend path is taken when a request carries a
// trace extension.
type linkedMem struct {
	*blockdev.MemDevice
	mu    sync.Mutex
	links []trace.Link
}

func (b *linkedMem) noteLink(l trace.Link) {
	b.mu.Lock()
	b.links = append(b.links, l)
	b.mu.Unlock()
}

func (b *linkedMem) ReadAtLink(p []byte, off int64, parent trace.Link) (int, error) {
	b.noteLink(parent)
	return b.ReadAt(p, off)
}

func (b *linkedMem) WriteAtLink(p []byte, off int64, parent trace.Link) (int, error) {
	b.noteLink(parent)
	return b.WriteAt(p, off)
}

// TestTracePropagationEndToEnd drives the full cross-process chain in one
// process: a client-side span stamps the request via ReadAtLink/WriteAtLink,
// the server negotiates CapTrace on STATUS, roots its serve span under the
// wire parent (Trace adopted, Remote = client span ID, local Parent 0), and
// threads the serve span's link into the LinkedBackend.
func TestTracePropagationEndToEnd(t *testing.T) {
	backend := &linkedMem{MemDevice: blockdev.NewMem(1 << 16)}
	srvTr := trace.New(64, 8)
	srvTr.Enable()
	addr, _ := startServer(t, backend, blockserve.Config{Tracer: srvTr})
	dev, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if dev.Caps()&blockserve.CapTrace == 0 {
		t.Fatalf("caps = %#x, server did not advertise CapTrace", dev.Caps())
	}

	clientLink := trace.Link{Trace: 0xC0FFEE, Span: 42}
	buf := make([]byte, 512)
	if _, err := dev.WriteAtLink(buf, 0, clientLink); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadAtLink(buf, 0, clientLink); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadAt(buf, 0); err != nil { // unstamped: no extension
		t.Fatal(err)
	}
	srvTr.Disable()

	backend.mu.Lock()
	links := append([]trace.Link(nil), backend.links...)
	backend.mu.Unlock()
	// All three ops thread a link while the server's tracer is active: the
	// stamped ones carry the client's trace, the unstamped one the fresh
	// trace its serve span rooted.
	if len(links) != 3 {
		t.Fatalf("LinkedBackend saw %d linked ops, want 3", len(links))
	}
	var adopted, fresh int
	for _, l := range links {
		if l.Span == 0 || l.Span == clientLink.Span {
			t.Errorf("backend link span = %d, want the serve span's own ID", l.Span)
		}
		switch {
		case l.Trace == clientLink.Trace:
			adopted++
		case l.Trace != 0:
			fresh++
		}
	}
	if adopted != 2 || fresh != 1 {
		t.Errorf("backend links: %d adopted / %d fresh, want 2 / 1", adopted, fresh)
	}

	var stamped, unstamped int
	for _, sp := range srvTr.Spans() {
		switch {
		case sp.Trace == clientLink.Trace:
			stamped++
			if sp.Remote != clientLink.Span {
				t.Errorf("serve span Remote = %d, want %d", sp.Remote, clientLink.Span)
			}
			if sp.Parent != 0 {
				t.Errorf("serve span Parent = %d, want 0 (parent lives in another process)", sp.Parent)
			}
		case sp.Trace != 0:
			unstamped++
			if sp.Remote != 0 {
				t.Errorf("unstamped serve span has Remote = %d", sp.Remote)
			}
		}
	}
	if stamped != 2 {
		t.Errorf("%d serve spans adopted the wire trace, want 2", stamped)
	}
	if unstamped < 1 {
		t.Error("unstamped request did not root its own trace")
	}
}

// TestServerQueueWaitSnapshot checks the queue-wait phase histogram: every
// admitted request contributes a sample (zero on the uncontended fast path).
func TestServerQueueWaitSnapshot(t *testing.T) {
	addr, srv := startServer(t, blockdev.NewMem(4096), blockserve.Config{})
	dev, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	buf := make([]byte, 128)
	for i := 0; i < 4; i++ {
		if _, err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()
	if snap.QueueWait == nil {
		t.Fatal("snapshot carries no queue-wait histogram")
	}
	if snap.QueueWait.Count < 4 {
		t.Fatalf("queue-wait count = %d, want >= 4 (every admitted request samples)", snap.QueueWait.Count)
	}
}

// TestPipelinedWritesDoNotShareThePayloadBuffer pins the server's buffer
// ownership rule from the outside: one connection has one payload buffer,
// reused by every request, so a burst of pipelined WRITEs with distinct
// payloads — all sent before any response is read — must each reach the
// backend intact, and pipelined READs after them must each get their own
// bytes. Every id is answered exactly once, in arrival order.
func TestPipelinedWritesDoNotShareThePayloadBuffer(t *testing.T) {
	const n = 16
	mem := blockdev.NewMem(1 << 20)
	addr, _ := startServer(t, mem, blockserve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Payload i has its own length, fill and offset, so a stale or
	// overwritten buffer shows up as a mismatch.
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 700+i*301) }
	offset := func(i int) int64 { return int64(i) * 8192 }
	var wbuf []byte
	for i := 0; i < n; i++ {
		wbuf, err = blockserve.WriteFrame(conn, wbuf, blockserve.Frame{
			Type: blockserve.OpWrite, ID: uint64(1 + i), Off: offset(i), Data: payload(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		wbuf, err = blockserve.WriteFrame(conn, wbuf, blockserve.Frame{
			Type: blockserve.OpRead, ID: uint64(100 + i), Off: offset(i), Count: uint32(len(payload(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var rbuf []byte
	for i := 0; i < 2*n; i++ {
		var f blockserve.Frame
		f, rbuf, err = blockserve.ReadFrame(conn, rbuf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.Type != blockserve.RespOK {
			t.Fatalf("response %d: ERR %q", i, f.Data)
		}
		if i < n {
			if want := payload(i); f.ID != uint64(1+i) || int(f.Count) != len(want) {
				t.Fatalf("response %d: id %d count %d, want WRITE id %d count %d", i, f.ID, f.Count, 1+i, len(want))
			}
			continue
		}
		if want := payload(i - n); f.ID != uint64(100+i-n) || !bytes.Equal(f.Data, want) {
			t.Fatalf("response %d: id %d with %d bytes (first 0x%02x), want READ id %d with %d bytes of 0x%02x",
				i, f.ID, len(f.Data), f.Data[0], 100+i-n, len(want), want[0])
		}
	}
	// The backend, read directly, agrees: no payload bled into another.
	for i := 0; i < n; i++ {
		got := make([]byte, len(payload(i)))
		if _, err := mem.ReadAt(got, offset(i)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("backend range %d holds another request's payload", i)
		}
	}
}

// sizeOnlyBackend fails the test if a READ, or a WRITE outside the device,
// reaches it: the server must refuse out-of-range requests from Size alone.
type sizeOnlyBackend struct {
	*blockdev.MemDevice
	t *testing.T
}

func (b sizeOnlyBackend) ReadAt(p []byte, off int64) (int, error) {
	b.t.Errorf("out-of-range READ reached the backend: %d bytes at %d", len(p), off)
	return 0, nil
}

func (b sizeOnlyBackend) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off > b.Size()-int64(len(p)) {
		b.t.Errorf("out-of-range WRITE reached the backend: %d bytes at %d", len(p), off)
		return 0, nil
	}
	return b.MemDevice.WriteAt(p, off)
}

// TestReadOutsideVolumeIsRefusedBeforeBuffering: a READ whose range the
// volume does not have is answered with an ERR frame before the server sizes
// a buffer from the client's count or calls the backend, and the connection
// stays usable.
func TestReadOutsideVolumeIsRefusedBeforeBuffering(t *testing.T) {
	const size = 4096
	addr, srv := startServer(t, sizeOnlyBackend{blockdev.NewMem(size), t}, blockserve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, req := range []blockserve.Frame{
		{Off: -1, Count: 16},
		{Off: size - 8, Count: 16},
		{Off: 0, Count: blockserve.MaxPayload}, // 8 MiB asked of a 4 KiB volume
		{Off: 1<<63 - 1, Count: 16},            // off+count overflows
		{Off: size + 1, Count: 0},
	} {
		req.Type, req.ID = blockserve.OpRead, uint64(i+1)
		if _, err := blockserve.WriteFrame(conn, nil, req); err != nil {
			t.Fatal(err)
		}
		f, _, err := blockserve.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if f.Type != blockserve.RespErr || f.ID != req.ID || !strings.Contains(string(f.Data), "outside the volume") {
			t.Fatalf("request %d: got type 0x%02x id %d %q, want an out-of-range ERR", i, f.Type, f.ID, f.Data)
		}
	}
	if snap := srv.Snapshot(); snap.Totals.Errors != 5 || snap.Totals.Reads != 0 {
		t.Fatalf("totals = %+v, want 5 errors and no reads", snap.Totals)
	}
}

// TestWriteOutsideVolumeIsRefusedBeforeBackend: a WRITE whose range the
// volume does not have — a negative offset, a range past the end, one whose
// end overflows int64 — is answered with an ERR frame before the backend
// sees it, and the connection then serves the next request. Checked on a
// backend that fails the test if reached, on an array (which would map the
// offset to an element index out of range) and on a file column (which
// would grow).
func TestWriteOutsideVolumeIsRefusedBeforeBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "col.img")
	file, err := blockdev.OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	backends := []struct {
		name string
		be   blockserve.Backend
	}{
		{"guard", sizeOnlyBackend{blockdev.NewMem(4096), t}},
		{"array", newTestArray(t)},
		{"file", file},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			addr, srv := startServer(t, b.be, blockserve.Config{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			size := b.be.Size()
			exchange := func(req blockserve.Frame) blockserve.Frame {
				t.Helper()
				if _, err := blockserve.WriteFrame(conn, nil, req); err != nil {
					t.Fatal(err)
				}
				f, _, err := blockserve.ReadFrame(conn, nil)
				if err != nil {
					t.Fatalf("request %d: %v", req.ID, err)
				}
				if f.ID != req.ID {
					t.Fatalf("request %d answered as %d", req.ID, f.ID)
				}
				return f
			}
			offs := []int64{-1, size - 8, size, math.MaxInt64 - 10, math.MaxInt64}
			for i, off := range offs {
				id := uint64(2*i + 1)
				f := exchange(blockserve.Frame{Type: blockserve.OpWrite, ID: id, Off: off, Data: make([]byte, 16)})
				if f.Type != blockserve.RespErr || !strings.Contains(string(f.Data), "outside the volume") {
					t.Fatalf("write of 16 bytes at %d: got type 0x%02x %q, want an out-of-range ERR", off, f.Type, f.Data)
				}
				f = exchange(blockserve.Frame{Type: blockserve.OpWrite, ID: id + 1, Off: size - 16, Data: []byte("the last sixteen")})
				if f.Type != blockserve.RespOK {
					t.Fatalf("in-range write after a refused one: type 0x%02x %q", f.Type, f.Data)
				}
			}
			if snap := srv.Snapshot(); snap.Totals.Errors != int64(len(offs)) || snap.Totals.Writes != int64(len(offs)) {
				t.Fatalf("totals = %+v, want %d errors and %d writes", snap.Totals, len(offs), len(offs))
			}
		})
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != 4096 {
		t.Fatalf("column file holds %d bytes after refused writes, want 4096", st.Size())
	}
}

// newTestArray is a small D-Code array over in-memory columns: 2 stripes of
// 512-byte elements.
func newTestArray(t testing.TB) *raid.Array {
	t.Helper()
	code := codes.MustNew("dcode", 5)
	const elem, stripes = 512, 2
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		devs[i] = blockdev.NewMem(stripes * int64(code.Rows()) * elem)
	}
	arr, err := raid.New(code, devs, elem, stripes, raid.WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}
