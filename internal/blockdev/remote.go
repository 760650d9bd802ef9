package blockdev

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcode/internal/blockserve"
	"dcode/internal/obs"
	"dcode/internal/trace"
)

// Remote is a Device served by a remote blockserve endpoint over TCP, so an
// array column can live on another node. It implements the same failure
// contract as a local device — a dead or unreachable remote surfaces as
// ErrFailed after the retry budget, which the raid layer treats exactly like
// a failed local disk (degraded reads, eventual rebuild).
//
// Each operation takes one pooled connection for its request/response
// exchange (responses are matched by request id), under a per-request
// deadline. Payloads are not staged: a write's buffers go out behind the
// header in one vectored write, and a read's response is received straight
// into the caller's buffer. Transport errors — dial failures, timeouts,
// resets, short frames — are retried with exponential backoff on a fresh
// connection, up to the attempt budget; protocol-level errors the server
// reports (bad range, a failed backing device) are deterministic and returned
// immediately, mapped back to the sentinel errors errors.Is callers check.
type Remote struct {
	addr string
	size int64
	caps uint32 // server capability bits from the DialRemote STATUS probe

	timeout  time.Duration // per-request deadline
	attempts int           // total tries per op (1 = no retry)
	backoff  time.Duration // first retry delay, doubling per retry

	mu     sync.Mutex
	idle   []*rconn
	closed bool

	seq atomic.Uint64

	// Test-facing fault injection; see SetInjector.
	inject atomic.Pointer[InjectFunc]

	retries atomic.Int64  // transport-level retries performed (observability)
	rtt     obs.Histogram // per-exchange round-trip latency (the network phase)

	// events/evDisk: optional flight recorder fed on transport retries, with
	// the column index this device backs. Set before serving traffic.
	events *obs.Recorder
	evDisk int32
}

// rconn is one pooled protocol connection with its reusable codec scratch.
// Whoever took it from the pool owns all of it until putConn.
type rconn struct {
	c   net.Conn
	hdr [blockserve.MaxHeader]byte // response header scratch
	fw  blockserve.Writer          // request header scratch and write vector
	buf []byte                     // where a vectored read lands before the scatter
}

// InjectFunc simulates a transport fault: it runs before each attempt of
// each operation (op is the blockserve op code, attempt counts from 0) and a
// non-nil return is handled exactly like a network failure of that attempt —
// the connection is dropped and the retry/backoff path runs. Keep returning
// errors to simulate a dead remote.
type InjectFunc func(op uint8, attempt int) error

// LinkedDevice is implemented by devices that can carry a trace link with
// each vectored operation — today only Remote, which stamps the link onto the
// wire so the serving node's spans join the caller's trace. Local devices
// have nothing to propagate to.
type LinkedDevice interface {
	ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
	WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
}

// RemoteOption tunes DialRemote.
type RemoteOption func(*Remote)

// WithRequestTimeout sets the per-request deadline (default 2s).
func WithRequestTimeout(d time.Duration) RemoteOption {
	return func(r *Remote) {
		if d > 0 {
			r.timeout = d
		}
	}
}

// WithRetry sets the total attempts per operation and the initial backoff
// between them (doubling per retry). Defaults: 3 attempts, 10ms backoff.
func WithRetry(attempts int, backoff time.Duration) RemoteOption {
	return func(r *Remote) {
		if attempts > 0 {
			r.attempts = attempts
		}
		if backoff >= 0 {
			r.backoff = backoff
		}
	}
}

// DialRemote connects to a blockserve endpoint and returns it as a Device.
// It performs one STATUS round trip to learn the volume size and verify the
// endpoint speaks the protocol.
func DialRemote(addr string, opts ...RemoteOption) (*Remote, error) {
	r := &Remote{
		addr:     addr,
		timeout:  2 * time.Second,
		attempts: 3,
		backoff:  10 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(r)
	}
	f, _, err := r.do(blockserve.Frame{Type: blockserve.OpStatus}, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("blockdev: remote %s: %w", addr, err)
	}
	r.size = f.Off
	// The STATUS response's Count is the server's capability bitmask (zero
	// from servers that predate negotiation); trace extensions are only
	// stamped onto requests when the server advertised CapTrace.
	r.caps = f.Count
	return r, nil
}

// Caps returns the capability bits the server advertised at dial time.
func (r *Remote) Caps() uint32 { return r.caps }

// SetEvents attaches a flight recorder (nil detaches) fed on transport
// retries, tagged with disk — the array column this device backs. Set it
// before the device serves traffic; the fields are read unsynchronized on
// the request path.
func (r *Remote) SetEvents(rec *obs.Recorder, disk int32) {
	r.events = rec
	r.evDisk = disk
}

// RTTSnapshot returns the distribution of request/response round trips —
// the network term of the per-phase latency decomposition. Only completed
// exchanges are observed; attempts that died in transit are excluded (their
// cost shows up in the retry counter and the op's own latency instead).
func (r *Remote) RTTSnapshot() obs.HistogramSnapshot { return r.rtt.Snapshot() }

// stamp attaches l as a trace extension to req when the link is live and the
// server advertised trace support.
func (r *Remote) stamp(req *blockserve.Frame, l trace.Link) {
	if l.Trace == 0 || r.caps&blockserve.CapTrace == 0 {
		return
	}
	req.Flags |= blockserve.FlagTrace
	req.Trace, req.Span = l.Trace, l.Span
}

// SetInjector installs fn (nil clears it); see InjectFunc.
func (r *Remote) SetInjector(fn InjectFunc) {
	if fn == nil {
		r.inject.Store(nil)
		return
	}
	r.inject.Store(&fn)
}

// Retries returns how many transport-level retries the device has performed.
func (r *Remote) Retries() int64 { return r.retries.Load() }

// Addr returns the remote endpoint address.
func (r *Remote) Addr() string { return r.addr }

// getConn pops an idle connection or dials a new one under the operation's
// context.
func (r *Remote) getConn(oc *opCtx) (*rconn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrFailed
	}
	if n := len(r.idle); n > 0 {
		rc := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return rc, nil
	}
	r.mu.Unlock()
	d := net.Dialer{Timeout: r.timeout}
	c, err := d.DialContext(oc.get(), "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	return &rconn{c: c}, nil
}

// poolCap caps the idle-connection pool. Concurrent operations beyond it dial
// extra connections and close them when done.
const poolCap = 4

// putConn returns a healthy connection to the pool (or closes it beyond the
// cap or after Close).
func (r *Remote) putConn(rc *rconn) {
	r.mu.Lock()
	if !r.closed && len(r.idle) < poolCap {
		r.idle = append(r.idle, rc)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	_ = rc.c.Close()
}

// remoteError is a protocol-level error reported by the server. Unwrap maps
// the known device sentinels through, so errors.Is(err, ErrFailed) holds for
// a remote whose backing device failed.
type remoteError struct {
	msg string
}

func (e *remoteError) Error() string { return "blockdev: remote: " + e.msg }

func (e *remoteError) Unwrap() error {
	switch e.msg {
	case ErrFailed.Error():
		return ErrFailed
	case ErrBadSector.Error():
		return ErrBadSector
	}
	return nil
}

// opCtx is the whole-operation context, built on first use: only dialing and
// backing off wait on one, so an operation served by a pooled connection on
// its first attempt never builds it — there the attempt's connection deadline
// is the bound. The budget runs from the operation's start whenever it is
// built: the per-attempt deadline times the attempt budget, plus every
// backoff pause. So a wedged remote can never hold an operation (or a raid
// stripe write above it) forever.
type opCtx struct {
	r      *Remote
	start  time.Time
	ctx    context.Context
	cancel context.CancelFunc
}

func (o *opCtx) get() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	r := o.r
	budget := time.Duration(r.attempts) * r.timeout
	for i := 1; i < r.attempts; i++ {
		budget += r.backoff << (i - 1)
	}
	if budget <= 0 {
		o.ctx, o.cancel = context.WithCancel(context.Background())
	} else {
		o.ctx, o.cancel = context.WithDeadline(context.Background(), o.start.Add(budget))
	}
	return o.ctx
}

func (o *opCtx) release() {
	if o.cancel != nil {
		o.cancel()
	}
}

// do runs one request/response exchange with retry-with-backoff on transport
// errors. Protocol errors (an ERR response) return immediately — the server
// answered authoritatively, retrying cannot change the outcome — and the
// connection stays pooled, since the exchange itself completed cleanly.
//
// out is the request's payload, sent as is. in is where an OK response's
// payload goes, and n how much of it arrived; with a nil in the payload comes
// back in a fresh resp.Data.
func (r *Remote) do(req blockserve.Frame, out, in [][]byte) (blockserve.Frame, int, error) {
	oc := opCtx{r: r, start: time.Now()}
	defer oc.release()
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			// The retry event carries the stamped trace ID (0 when the op was
			// unlinked), so a postmortem ties the transport trouble back to
			// the exact op span that suffered it.
			r.events.Record(obs.EvRemoteRetry, r.evDisk, -1, req.Trace, int64(attempt))
			ctx := oc.get()
			select {
			case <-ctx.Done():
				return blockserve.Frame{}, 0, fmt.Errorf("%w: %s after %d attempts: %v (%v)",
					ErrFailed, r.addr, attempt, lastErr, ctx.Err())
			case <-time.After(r.backoff << (attempt - 1)):
			}
		}
		if fp := r.inject.Load(); fp != nil {
			if err := (*fp)(req.Type, attempt); err != nil {
				lastErr = err
				continue
			}
		}
		resp, n, err := r.attempt(&oc, req, out, in)
		if err == nil {
			return resp, n, nil
		}
		var rerr *remoteError
		if errors.As(err, &rerr) {
			return blockserve.Frame{}, 0, err
		}
		lastErr = err
	}
	return blockserve.Frame{}, 0, fmt.Errorf("%w: %s after %d attempts: %v", ErrFailed, r.addr, r.attempts, lastErr)
}

// attempt performs one exchange on one connection, and decides the
// connection's fate: a failed exchange leaves the stream in an unknown state,
// so the connection is dropped; a completed one — an ERR answer included —
// pools it. The ERR message is the exchange's own allocation, not connection
// memory, so it stays valid once another operation has the connection.
func (r *Remote) attempt(oc *opCtx, req blockserve.Frame, out, in [][]byte) (blockserve.Frame, int, error) {
	rc, err := r.getConn(oc)
	if err != nil {
		return blockserve.Frame{}, 0, err
	}
	resp, n, err := r.exchange(oc, rc, req, out, in)
	if err != nil {
		_ = rc.c.Close()
		return blockserve.Frame{}, 0, err
	}
	r.putConn(rc)
	if resp.Type == blockserve.RespErr {
		return blockserve.Frame{}, 0, &remoteError{msg: string(resp.Data)}
	}
	return resp, n, nil
}

// exchange sends req with out as its payload on rc and receives the response.
// The connection deadline is the tighter of the per-attempt timeout and the
// operation's deadline, where one has been built. Every error it returns
// means the stream can no longer be trusted.
func (r *Remote) exchange(oc *opCtx, rc *rconn, req blockserve.Frame, out, in [][]byte) (resp blockserve.Frame, n int, err error) {
	req.ID = r.seq.Add(1)
	start := time.Now()
	deadline := start.Add(r.timeout)
	if oc.ctx != nil {
		if d, ok := oc.ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
	}
	_ = rc.c.SetDeadline(deadline)
	if err := rc.fw.WriteFrame(rc.c, req, out...); err != nil {
		return resp, 0, err
	}
	if resp, n, err = blockserve.ReadHeader(rc.c, &rc.hdr); err != nil {
		return resp, 0, err
	}
	// A connection-level rejection (client cap, draining) was sent before the
	// server read our request, so it carries no request id; anything else
	// with a foreign id is a stale response on a reused connection — the
	// stream is unsynchronized, and its payload must not reach the caller.
	rejected := resp.Type == blockserve.RespErr && resp.ID == 0
	if resp.ID != req.ID && !rejected {
		return resp, 0, fmt.Errorf("blockdev: remote %s: response id %d for request %d", r.addr, resp.ID, req.ID)
	}
	total := VecLen(in)
	switch {
	case resp.Type != blockserve.RespOK || in == nil:
		// Error messages and STATUS documents outlive the exchange.
		if n > 0 {
			resp.Data = make([]byte, n)
			_, err = io.ReadFull(rc.c, resp.Data)
		}
	case n > total:
		// More than was asked for can never be written past the caller's
		// buffers, and a server that sends it is not speaking the protocol.
		err = fmt.Errorf("blockdev: remote %s: %d-byte response to a %d-byte read", r.addr, n, total)
	case len(in) == 1:
		_, err = io.ReadFull(rc.c, in[0][:n])
	default:
		// One read into the connection's buffer and a scatter, not a read
		// call per buffer.
		if cap(rc.buf) < n {
			rc.buf = make([]byte, total)
		}
		src := rc.buf[:n]
		if _, err = io.ReadFull(rc.c, src); err == nil {
			for _, b := range in {
				src = src[copy(b, src):]
			}
		}
	}
	if err != nil {
		return resp, 0, err
	}
	r.rtt.Observe(time.Since(start))
	if rejected {
		// The condition can clear, so surface it as a retriable transport
		// error that keeps the server's reason.
		return resp, 0, fmt.Errorf("blockdev: remote %s rejected connection: %s", r.addr, resp.Data)
	}
	return resp, n, nil
}

// ReadAt implements Device.
func (r *Remote) ReadAt(p []byte, off int64) (int, error) {
	return r.ReadAtLink(p, off, trace.Link{})
}

// ReadAtLink is ReadAt stamped with the caller's span link: the request
// carries a trace extension (capability permitting), so the serving node's
// spans join the caller's trace. The zero Link sends a plain request.
func (r *Remote) ReadAtLink(p []byte, off int64, l trace.Link) (int, error) {
	return r.ReadVecAtLink([][]byte{p}, off, l)
}

// WriteAt implements Device.
func (r *Remote) WriteAt(p []byte, off int64) (int, error) {
	return r.WriteAtLink(p, off, trace.Link{})
}

// WriteAtLink is WriteAt stamped with the caller's span link; see ReadAtLink.
func (r *Remote) WriteAtLink(p []byte, off int64, l trace.Link) (int, error) {
	return r.WriteVecAtLink([][]byte{p}, off, l)
}

// ReadVecAt implements Device. The wire protocol moves one contiguous
// payload either way, so a vectored read is a single request for the total
// length — still one remote round trip per coalesced run. A single buffer
// receives the response directly; several are scattered into from the
// connection's buffer, the one copy deserialization needs.
func (r *Remote) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	return r.ReadVecAtLink(bufs, off, trace.Link{})
}

// ReadVecAtLink is ReadVecAt stamped with the caller's span link; see
// ReadAtLink.
func (r *Remote) ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	total := VecLen(bufs)
	if total > blockserve.MaxPayload {
		return 0, fmt.Errorf("blockdev: remote read of %d bytes exceeds frame limit %d", total, blockserve.MaxPayload)
	}
	req := blockserve.Frame{Type: blockserve.OpRead, Off: off, Count: uint32(total)}
	r.stamp(&req, l)
	_, n, err := r.do(req, nil, bufs)
	if err == nil && n != total {
		err = fmt.Errorf("blockdev: remote short read: %d of %d bytes", n, total)
	}
	return n, err
}

// WriteVecAt implements Device: bufs go out as one frame's payload in one
// vectored write — a single remote round trip per coalesced run, no gather.
func (r *Remote) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	return r.WriteVecAtLink(bufs, off, trace.Link{})
}

// WriteVecAtLink is WriteVecAt stamped with the caller's span link; see
// ReadAtLink.
func (r *Remote) WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	if total := VecLen(bufs); total > blockserve.MaxPayload {
		return 0, fmt.Errorf("blockdev: remote write of %d bytes exceeds frame limit %d", total, blockserve.MaxPayload)
	}
	req := blockserve.Frame{Type: blockserve.OpWrite, Off: off}
	r.stamp(&req, l)
	f, _, err := r.do(req, bufs, nil)
	if err != nil {
		return 0, err
	}
	return int(f.Count), nil
}

// Flush asks the remote to persist outstanding writes.
func (r *Remote) Flush() error {
	_, _, err := r.do(blockserve.Frame{Type: blockserve.OpFlush}, nil, nil)
	return err
}

// Status fetches the remote volume's status document.
func (r *Remote) Status() ([]byte, error) {
	f, _, err := r.do(blockserve.Frame{Type: blockserve.OpStatus}, nil, nil)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// Rebuild asks the remote volume (an array endpoint) to rebuild a disk.
func (r *Remote) Rebuild(disk int) error {
	_, _, err := r.do(blockserve.Frame{Type: blockserve.OpRebuild, Off: int64(disk)}, nil, nil)
	return err
}

// Size implements Device.
func (r *Remote) Size() int64 { return r.size }

// Close implements Device, closing every pooled connection.
func (r *Remote) Close() error {
	r.mu.Lock()
	r.closed = true
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, rc := range idle {
		_ = rc.c.Close()
	}
	return nil
}
