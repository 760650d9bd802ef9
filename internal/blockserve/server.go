package blockserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// Backend is the volume a Server fronts: random-access reads and writes over
// a fixed size. Both *raid.Array and blockdev.Device satisfy it, so the same
// server binary serves a whole array or a single column file.
type Backend interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
}

// Flusher is implemented by backends that can persist outstanding writes;
// FLUSH succeeds as a no-op otherwise.
type Flusher interface {
	Flush() error
}

// Statuser is implemented by backends with a richer status document than the
// default {"size": N}; the array adapter returns the full raid snapshot.
type Statuser interface {
	StatusJSON() ([]byte, error)
}

// Rebuilder is implemented by array backends; REBUILD fails cleanly on
// backends without it (a single column device has nothing to rebuild).
type Rebuilder interface {
	Rebuild(disk int) error
}

// LinkedBackend is implemented by backends that can thread an incoming trace
// link into their own operation spans (raid.Array via ReadAtLink/WriteAtLink).
// When a request carries a trace extension and the backend supports it, the
// serve span's link is passed down so the backend's op span — and everything
// under it, including requests to further remote columns — joins the request's
// end-to-end trace.
type LinkedBackend interface {
	ReadAtLink(p []byte, off int64, parent trace.Link) (int, error)
	WriteAtLink(p []byte, off int64, parent trace.Link) (int, error)
}

// Config tunes a Server. The zero value is usable: defaults below apply.
type Config struct {
	// MaxClients caps concurrently connected clients; further connections
	// are sent one ERR frame and closed. Default 256.
	MaxClients int
	// MaxInflight caps requests being served at once across all clients —
	// the admission-control/backpressure limit. A connection whose request
	// cannot acquire a slot stops being read until one frees, so pressure
	// propagates to the client through TCP flow control. Default 128.
	MaxInflight int
	// Tracer, when non-nil and enabled, records one client-tagged span per
	// served request.
	Tracer *trace.Tracer
	// Events, when non-nil, receives flight-recorder events: admission
	// saturation, and a dump of the ring if a request handler panics.
	Events *obs.Recorder
	// Logf, when non-nil, receives connection lifecycle and protocol-error
	// lines.
	Logf func(format string, args ...any)
}

const (
	defaultMaxClients  = 256
	defaultMaxInflight = 128
)

// ErrDraining is the message sent to clients rejected because the server is
// shutting down, and ErrClientCap to those beyond the client limit.
var (
	ErrDraining  = errors.New("blockserve: server draining")
	ErrClientCap = errors.New("blockserve: server at client capacity")
)

// clientState is one connection: its tally and the buffers its goroutine
// serves requests through. The counters are atomics because Snapshot reads
// them from other goroutines; everything else belongs to the connection's
// goroutine alone.
type clientState struct {
	id   int64
	addr string
	conn net.Conn

	reads, writes, flushes, admin, errs atomic.Int64
	bytesIn, bytesOut                   atomic.Int64

	hdr [MaxHeader]byte // request header scratch
	fw  Writer          // response header scratch and write vector
	// buf is the connection's one payload buffer, grown to the largest
	// payload seen and kept. A request's payload is received into it and
	// handed to the backend as is; a READ is served into it and sent from it.
	// Requests on a connection are served one at a time, so nothing else
	// holds it: the backend may use the slice until its call returns, the
	// kernel until the response write returns, and the next request reuses it.
	buf []byte
}

// payload returns the first n bytes of the connection's payload buffer,
// growing it if need be. n is bounded by MaxFrame by the time it gets here.
func (c *clientState) payload(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

func (c *clientState) snapshot(active bool) obs.ClientSnapshot {
	return obs.ClientSnapshot{
		ID:       c.id,
		Addr:     c.addr,
		Active:   active,
		Reads:    c.reads.Load(),
		Writes:   c.writes.Load(),
		Flushes:  c.flushes.Load(),
		Admin:    c.admin.Load(),
		Errors:   c.errs.Load(),
		BytesIn:  c.bytesIn.Load(),
		BytesOut: c.bytesOut.Load(),
	}
}

// Server serves one Backend to many concurrent clients.
type Server struct {
	backend Backend
	linked  LinkedBackend // backend's trace-threading view, nil if unsupported
	cfg     Config

	sem chan struct{} // inflight-request semaphore

	// queueWait is the admission-queue wait distribution; semSaturated counts
	// requests that found the semaphore full. The fast path (slot free)
	// observes a zero without reading the clock.
	queueWait    obs.Histogram
	semSaturated atomic.Int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*clientState]struct{}
	closed   obs.ClientSnapshot // aggregate of departed clients
	draining bool

	nextClient atomic.Int64
	accepted   atomic.Int64
	rejected   atomic.Int64
	inflight   atomic.Int64

	wg sync.WaitGroup
}

// New returns a Server fronting backend.
func New(backend Backend, cfg Config) *Server {
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = defaultMaxClients
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = defaultMaxInflight
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Nop
	}
	lb, _ := backend.(LinkedBackend)
	return &Server{
		backend: backend,
		linked:  lb,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInflight),
		conns:   make(map[*clientState]struct{}),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown (or a fatal listener error)
// and blocks until every connection goroutine has exited. The context it
// roots here is the server's lifetime: every connection and request context
// derives from it, so when Serve returns, everything below is cancelled.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	defer s.wg.Wait()
	defer cancel() // runs before the Wait: handlers see cancellation first
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.admit(ctx, conn)
	}
}

// admit applies the client cap and hands an accepted connection to its
// reader goroutine. Rejected connections get one best-effort ERR frame so
// the client sees why, not just a reset.
func (s *Server) admit(ctx context.Context, conn net.Conn) {
	s.mu.Lock()
	reject := error(nil)
	switch {
	case s.draining:
		reject = ErrDraining
	case len(s.conns) >= s.cfg.MaxClients:
		reject = ErrClientCap
	}
	if reject != nil {
		s.mu.Unlock()
		s.rejected.Add(1)
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		//lint:ignore iocheck best-effort courtesy ERR to a connection we close on the next line
		_, _ = WriteFrame(conn, nil, Frame{Type: RespErr, Data: []byte(reject.Error())})
		_ = conn.Close()
		return
	}
	c := &clientState{
		id:   s.nextClient.Add(1),
		addr: conn.RemoteAddr().String(),
		conn: conn,
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.accepted.Add(1)
	s.logf("blockserve: client %d connected from %s", c.id, c.addr)
	s.wg.Add(1)
	go s.serveConn(ctx, c)
}

// serveConn is the per-client connection goroutine: it reads one request,
// takes an inflight slot, serves the request and writes the response, all on
// this goroutine, then reads the next. Waiting for a slot — or for the
// backend — stops further reads from this client, which is the backpressure
// path. Pipelined requests are legal and are answered in arrival order.
func (s *Server) serveConn(ctx context.Context, c *clientState) {
	defer s.wg.Done()
	defer func() {
		_ = c.conn.Close()
		s.mu.Lock()
		delete(s.conns, c)
		snap := c.snapshot(false)
		s.closed.Merge(snap)
		s.mu.Unlock()
		s.logf("blockserve: client %d disconnected (%d ops)", c.id, snap.Ops())
	}()
	for {
		f, n, err := ReadHeader(c.conn, &c.hdr)
		if err == nil && n > 0 {
			f.Data = c.payload(n)
			_, err = io.ReadFull(c.conn, f.Data)
			err = noEOF(err)
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !isEOF(err) {
				s.logf("blockserve: client %d read: %v", c.id, err)
			}
			return
		}
		if f.Type >= RespOK {
			s.logf("blockserve: client %d sent response type 0x%02x", c.id, f.Type)
			return
		}
		// Inflight admission; a full semaphore blocks the reader, which is the
		// backpressure path. The free-slot fast path records a zero wait
		// without reading the clock; only a saturated arrival pays for
		// timestamps — and leaves a flight-recorder event, since saturation is
		// exactly the "where did my p99 go" moment.
		select {
		case s.sem <- struct{}{}:
			s.queueWait.ObserveNanos(0)
		default:
			s.semSaturated.Add(1)
			s.cfg.Events.Record(obs.EvSemSaturated, -1, -1, 0, s.inflight.Load())
			waitStart := time.Now()
			s.sem <- struct{}{}
			s.queueWait.Observe(time.Since(waitStart))
		}
		s.inflight.Add(1)
		err = s.handle(ctx, c, f)
		s.inflight.Add(-1)
		<-s.sem
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("blockserve: client %d write: %v", c.id, err)
			}
			return
		}
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// handle executes one request and writes its response frame; the error it
// returns is the response write's, after which the connection is unusable.
// ctx carries the server lifetime: a request that arrives once it is done —
// the server is winding down — is failed without touching the backend.
func (s *Server) handle(ctx context.Context, c *clientState, f Frame) error {
	if s.cfg.Events != nil {
		// Flight-recorder last words: a panicking handler takes the process
		// down (Go has no global panic hook), so dump the event ring on the
		// way out, then let the panic proceed. Costs one defer per request —
		// only when a recorder is attached.
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Events.Record(obs.EvPanic, -1, -1, f.Trace, 0)
				fmt.Fprintf(os.Stderr, "blockserve: panic serving client %d: %v\nflight recorder:\n", c.id, p)
				s.cfg.Events.Dump(os.Stderr)
				panic(p)
			}
		}()
	}
	var (
		resp Frame
		op   trace.Op
	)
	resp.ID = f.ID
	resp.Type = RespOK
	switch f.Type {
	case OpRead:
		op = trace.OpServeRead
	case OpWrite:
		op = trace.OpServeWrite
	case OpFlush:
		op = trace.OpServeFlush
	case OpStatus:
		op = trace.OpServeStatus
	case OpRebuild:
		op = trace.OpServeRebuild
	}
	// The serve span roots under the request's wire trace context when one
	// was stamped (Trace/Span zero otherwise): the span adopts the caller's
	// trace ID and records the caller's span as its remote parent.
	tc := s.cfg.Tracer.BeginClient(op, int32(c.id), trace.Link{Trace: f.Trace, Span: f.Span})
	var bytes int64
	var err error

	if cerr := ctx.Err(); cerr != nil {
		// The server is winding down: answer without touching the backend.
		err = fmt.Errorf("request aborted before dispatch: %w", cerr)
	}

	switch {
	case err != nil:
	case f.Type == OpRead:
		if f.Count > MaxPayload {
			err = fmt.Errorf("read of %d bytes exceeds frame payload limit %d", f.Count, MaxPayload)
			break
		}
		// Refuse a range the volume does not have before sizing anything from
		// the client's count.
		if err = s.checkRange("read", f.Off, int64(f.Count)); err != nil {
			break
		}
		buf := c.payload(int(f.Count))
		var n int
		if s.linked != nil && tc.Active() {
			n, err = s.linked.ReadAtLink(buf, f.Off, tc.Link())
		} else {
			n, err = s.backend.ReadAt(buf, f.Off)
		}
		if err == nil {
			resp.Data = buf[:n]
			bytes = int64(n)
			c.reads.Add(1)
			c.bytesOut.Add(bytes)
		}
	case f.Type == OpWrite:
		if err = s.checkRange("write", f.Off, int64(len(f.Data))); err != nil {
			break
		}
		var n int
		if s.linked != nil && tc.Active() {
			n, err = s.linked.WriteAtLink(f.Data, f.Off, tc.Link())
		} else {
			n, err = s.backend.WriteAt(f.Data, f.Off)
		}
		if err == nil {
			resp.Count = uint32(n)
			bytes = int64(n)
			c.writes.Add(1)
			c.bytesIn.Add(bytes)
		}
	case f.Type == OpFlush:
		if fl, ok := s.backend.(Flusher); ok {
			err = fl.Flush()
		}
		if err == nil {
			c.flushes.Add(1)
		}
	case f.Type == OpStatus:
		resp.Off = s.backend.Size()
		// A STATUS response's Count carries the server's capability bitmask;
		// clients gate frame extensions on it (old servers leave it zero).
		resp.Count = Caps
		if st, ok := s.backend.(Statuser); ok {
			resp.Data, err = st.StatusJSON()
		} else {
			resp.Data = []byte(fmt.Sprintf(`{"size":%d}`, resp.Off))
		}
		if err == nil {
			c.admin.Add(1)
		}
	case f.Type == OpRebuild:
		if rb, ok := s.backend.(Rebuilder); ok {
			err = rb.Rebuild(int(f.Off))
		} else {
			err = errors.New("backend does not support rebuild")
		}
		if err == nil {
			c.admin.Add(1)
		}
	}

	if err != nil {
		c.errs.Add(1)
		resp = Frame{Type: RespErr, ID: f.ID, Data: []byte(err.Error())}
	}
	s.cfg.Tracer.End(tc, bytes, err != nil)
	return c.fw.WriteFrame(c.conn, resp)
}

// checkRange refuses a request of n bytes at off that the volume does not
// hold, so the backend never sees it. It never forms off+n, which overflows
// for an offset near the top of int64.
func (s *Server) checkRange(kind string, off, n int64) error {
	if size := s.backend.Size(); off < 0 || n > size || off > size-n {
		return fmt.Errorf("%s of %d bytes at %d outside the volume's %d bytes", kind, n, off, size)
	}
	return nil
}

// Shutdown gracefully drains the server: it stops accepting, waits for every
// in-flight request to complete (bounded by ctx), then closes the remaining
// connections and waits for their goroutines. It is the SIGTERM path of
// cmd/raidserve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	// Wait for in-flight work, polling cheaply; new requests still arriving
	// on open connections keep being served until the connections close
	// below, but the common client (blockdev.Remote, loadgen) stops sending
	// once its own process winds down.
	drained := ctx.Err() == nil
	for drained && s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			drained = false
		case <-time.After(2 * time.Millisecond):
		}
	}

	s.mu.Lock()
	for c := range s.conns {
		_ = c.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if !drained {
		return ctx.Err()
	}
	return nil
}

// Snapshot returns the server's metric view: lifecycle counters, the
// admission configuration, the all-time totals and the live per-client
// detail, sorted by client id (the conns map iterates randomly).
func (s *Server) Snapshot() obs.ServerSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	qw := s.queueWait.Snapshot()
	snap := obs.ServerSnapshot{
		Accepted:     s.accepted.Load(),
		Rejected:     s.rejected.Load(),
		Active:       int64(len(s.conns)),
		Inflight:     s.inflight.Load(),
		MaxClients:   s.cfg.MaxClients,
		MaxInflight:  s.cfg.MaxInflight,
		Draining:     s.draining,
		Totals:       s.closed,
		QueueWait:    &qw,
		SemSaturated: s.semSaturated.Load(),
	}
	if s.ln != nil {
		snap.Addr = s.ln.Addr().String()
	}
	for c := range s.conns {
		cs := c.snapshot(true)
		snap.Totals.Merge(cs)
		snap.Clients = append(snap.Clients, cs)
	}
	// Totals is an aggregate, not a client: strip the identity fields the
	// merges adopted.
	snap.Totals.ID, snap.Totals.Addr, snap.Totals.Active = 0, "", false
	sort.Slice(snap.Clients, func(i, j int) bool { return snap.Clients[i].ID < snap.Clients[j].ID })
	return snap
}
