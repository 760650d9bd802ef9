// Command loadgen is the network load/soak driver for raidserve: it mounts a
// served volume N times over the block protocol (one blockdev.Remote per
// simulated client), partitions the volume into disjoint element-aligned
// per-client regions, and hammers the server with the paper's <S,L,T>
// workload profiles until a deadline. Every read is verified against a
// position-determined byte pattern, so any data corruption — healthy or
// degraded, local or remote column — counts as an error.
//
// It reports per-op latency (p50/p95/p99/p999 for reads and writes
// separately), throughput, and the error count as a human-readable summary,
// optionally appended as a markdown table to a file; the exit status gates
// the run. With -ops the run is execution-bound instead of deadline-bound, so
// a seeded run offers a byte-identical op stream every time:
//
//	loadgen -addr HOST:PORT [-clients 8] [-duration 5s] [-profile mixed]
//	        [-seed 1] [-ops 0] [-md SUMMARY.md]
//	        [-max-errors 0] [-trace-out TRACE.json] [-slowest 5]
//
// With -trace-out every op runs under a client-side span whose trace context
// travels to the server on the wire (when it advertises the capability), and
// the run's spans are written as a trace.NodeDump JSON file — feed it to
// `raidctl trace -merge` together with the servers' /trace dumps to see each
// slow client op nested over the server work it caused. The markdown summary
// then also lists the trace IDs of the N slowest ops, ready to grep in the
// merged trace or in `raidctl events` output.
//
// Exit status: 0 on success, 1 when errors exceed -max-errors or nothing
// executed, 2 on usage/setup failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/obs"
	"dcode/internal/trace"
	"dcode/internal/workload"
)

// status is the subset of raidserve's STATUS document loadgen needs to mount
// the volume.
type status struct {
	Code     string `json:"code"`
	Size     int64  `json:"size"`
	ElemSize int    `json:"elem_size"`
}

func main() {
	addr := flag.String("addr", "", "raidserve address to load (required)")
	clients := flag.Int("clients", 8, "concurrent clients, each with its own connection pool")
	duration := flag.Duration("duration", 5*time.Second, "how long to run the op phase")
	profileName := flag.String("profile", "mixed", "workload profile: readonly, readintensive or mixed")
	maxLen := flag.Int("maxlen", 8, "max op length L in elements")
	maxTimes := flag.Int("maxtimes", 2, "max repeat count T per op")
	seed := flag.Int64("seed", 1, "workload generator seed (client i uses seed+i)")
	opsFlag := flag.Int("ops", 0, "op executions per client (0 = run until -duration; >0 makes a seeded run fully deterministic)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline on the protocol client")
	retries := flag.Int("retries", 4, "transport attempts per op before the client reports failure")
	md := flag.String("md", "", "append a markdown latency table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	maxErrors := flag.Int64("max-errors", 0, "tolerated op/data errors before exiting nonzero")
	traceOut := flag.String("trace-out", "", "write this run's client spans as a trace.NodeDump JSON file")
	slowestN := flag.Int("slowest", 5, "slowest ops to list with trace IDs in the report")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	prof, err := profileByName(*profileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if *clients < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -clients must be at least 1")
		os.Exit(2)
	}

	// One probe connection learns the geometry; each client then mounts the
	// volume independently so connection state is never shared across clients.
	probe, err := blockdev.DialRemote(*addr, blockdev.WithRequestTimeout(*timeout))
	if err != nil {
		fatal(err)
	}
	doc, err := probe.Status()
	_ = probe.Close()
	if err != nil {
		fatal(err)
	}
	var st status
	if err := json.Unmarshal(doc, &st); err != nil {
		fatal(fmt.Errorf("parsing STATUS document: %w", err))
	}
	if st.ElemSize <= 0 || st.Size <= 0 {
		fatal(fmt.Errorf("server reported unusable geometry: size=%d elem_size=%d", st.Size, st.ElemSize))
	}

	// Disjoint element-aligned regions: clients never overlap, so a read
	// always observes either the fill pattern or this client's own rewrites
	// of it — which are the same bytes. Every read is therefore verifiable
	// with no cross-client coordination.
	elem := int64(st.ElemSize)
	regionElems := st.Size / elem / int64(*clients)
	if regionElems < 1 {
		fatal(fmt.Errorf("volume too small: %d clients need at least %d bytes, have %d",
			*clients, int64(*clients)*elem, st.Size))
	}
	if int64(*maxLen) > regionElems {
		*maxLen = int(regionElems)
	}

	fmt.Fprintf(os.Stderr, "loadgen: %s volume %s: %d bytes, elem %d; %d clients x %d elements, profile %s, %s\n",
		st.Code, *addr, st.Size, st.ElemSize, *clients, regionElems, prof.Name, *duration)

	shared := &runState{
		readLat:  &obs.Histogram{},
		writeLat: &obs.Histogram{},
		slowCap:  *slowestN,
	}
	if *traceOut != "" {
		// Size the ring to hold the whole run when op-bound; the default
		// capacity otherwise (an open-ended soak only keeps the tail).
		capacity := trace.DefaultCapacity
		if *opsFlag > 0 {
			capacity = *opsFlag * *clients * 2
		}
		shared.tr = trace.New(capacity, trace.DefaultSlowCapacity)
		shared.tr.Enable()
	}
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := clientCfg{
				id:      id,
				addr:    *addr,
				timeout: *timeout,
				retries: *retries,
				start:   int64(id) * regionElems * elem,
				elems:   regionElems,
				elem:    elem,
				seed:    *seed + int64(id),
				maxLen:  *maxLen,
				maxT:    *maxTimes,
				maxOps:  *opsFlag,
				prof:    prof,
			}
			if err := runClient(c, deadline, shared); err != nil {
				shared.errs.Add(1)
				fmt.Fprintf(os.Stderr, "loadgen: client %d: %v\n", id, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := summary{
		code:       st.Code,
		workload:   prof.Name,
		clients:    *clients,
		errors:     shared.errs.Load(),
		executions: shared.execs.Load(),
	}
	rs, ws := shared.readLat.Snapshot(), shared.writeLat.Snapshot()
	if sec := elapsed.Seconds(); sec > 0 {
		res.mbPerSec = float64(shared.bytes.Load()) / (1 << 20) / sec
		res.opsPerSec = float64(res.executions) / sec
	}

	report(os.Stdout, res, rs, ws)
	slowest := shared.slowestOps()
	for _, so := range slowest {
		fmt.Printf("  slow: %-5s %9s off=%-10d trace=%016x\n", so.kind, ms(so.durNs), so.off, so.trace)
	}
	if *md != "" {
		if err := appendMarkdown(*md, res, rs, ws, slowest); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeTraceDump(*traceOut, shared.tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *traceOut)
	}
	if res.executions == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no operations executed")
		os.Exit(1)
	}
	if res.errors > *maxErrors {
		fmt.Fprintf(os.Stderr, "loadgen: %d errors exceed budget %d\n", res.errors, *maxErrors)
		os.Exit(1)
	}
}

// summary is one run's totals, as the report and the markdown table print
// them.
type summary struct {
	code, workload      string
	clients             int
	errors, executions  int64
	mbPerSec, opsPerSec float64
}

// runState aggregates results across client goroutines.
type runState struct {
	execs    atomic.Int64
	bytes    atomic.Int64
	errs     atomic.Int64
	readLat  *obs.Histogram
	writeLat *obs.Histogram

	// tr, when non-nil, traces every op; the op's trace context rides the
	// wire so server spans join the same trace.
	tr *trace.Tracer

	// slowest is the top-slowCap ops by duration, kept so the report can
	// name the trace IDs worth chasing through the merged trace.
	mu      sync.Mutex
	slowest []slowOp
	slowCap int
}

// slowOp identifies one slow operation in the report.
type slowOp struct {
	durNs int64
	trace uint64
	off   int64
	kind  string
}

// noteOp offers one completed op to the slowest list.
func (rs *runState) noteOp(durNs int64, traceID uint64, off int64, kind string) {
	if rs.slowCap <= 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.slowest) == rs.slowCap && durNs <= rs.slowest[len(rs.slowest)-1].durNs {
		return
	}
	i := len(rs.slowest)
	for i > 0 && rs.slowest[i-1].durNs < durNs {
		i--
	}
	rs.slowest = append(rs.slowest, slowOp{})
	copy(rs.slowest[i+1:], rs.slowest[i:])
	rs.slowest[i] = slowOp{durNs: durNs, trace: traceID, off: off, kind: kind}
	if len(rs.slowest) > rs.slowCap {
		rs.slowest = rs.slowest[:rs.slowCap]
	}
}

// slowestOps returns the recorded slowest ops, slowest first.
func (rs *runState) slowestOps() []slowOp {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]slowOp(nil), rs.slowest...)
}

// writeTraceDump writes the tracer's retained spans as a trace.NodeDump,
// the same JSON document raidserve serves at /trace, so raidctl trace
// -merge treats a loadgen dump file and a live server alike.
func writeTraceDump(path string, tr *trace.Tracer) error {
	tr.Disable()
	nd := trace.NodeDump{Node: "loadgen", TimeNs: time.Now().UnixNano(), Spans: tr.Spans()}
	b, err := json.MarshalIndent(nd, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type clientCfg struct {
	id      int
	addr    string
	timeout time.Duration
	retries int
	start   int64 // byte offset of this client's region
	elems   int64 // region length in elements
	elem    int64 // element size in bytes
	seed    int64
	maxLen  int
	maxT    int
	maxOps  int // stop after this many executions (0 = deadline-bound)
	prof    workload.Profile
}

// runClient mounts the volume, fills its region with the verification
// pattern, then replays a generated <S,L,T> trace cyclically until the
// deadline, verifying every read. Op/data failures are counted, logged once
// per kind, and the client keeps going — a load test should keep offering
// load through a degraded phase, not stop at the first casualty.
func runClient(c clientCfg, deadline time.Time, shared *runState) error {
	dev, err := blockdev.DialRemote(c.addr,
		blockdev.WithRequestTimeout(c.timeout),
		blockdev.WithRetry(c.retries, 10*time.Millisecond))
	if err != nil {
		return err
	}
	defer dev.Close()

	// Fill phase: write the position-determined pattern across the region in
	// large chunks. Not timed — it is setup, not offered load.
	const fillChunk = 1 << 18
	buf := make([]byte, fillChunk)
	end := c.start + c.elems*c.elem
	for off := c.start; off < end; {
		n := int64(len(buf))
		if rem := end - off; n > rem {
			n = rem
		}
		pattern(buf[:n], off, c.seed)
		if _, err := dev.WriteAt(buf[:n], off); err != nil {
			return fmt.Errorf("fill at %d: %w", off, err)
		}
		off += n
	}

	ops, err := workload.Generate(workload.Config{
		Ops: 512, MaxLen: c.maxLen, MaxTimes: c.maxT,
		DataElems: int(c.elems), Seed: c.seed,
	}, c.prof)
	if err != nil {
		return err
	}

	opBuf := make([]byte, int64(c.maxLen)*c.elem)
	want := make([]byte, int64(c.maxLen)*c.elem)
	logged := false
	attempted := 0
	// With -ops the trace is bounded by execution count, not wall clock, so a
	// seeded run offers the exact same op stream every time (the deadline
	// stays as a safety cap). Attempts count even when the op errors —
	// determinism of the offered load must not depend on server health.
	more := func() bool {
		if c.maxOps > 0 {
			return attempted < c.maxOps && time.Now().Before(deadline)
		}
		return time.Now().Before(deadline)
	}
	for i := 0; more(); i++ {
		op := ops[i%len(ops)]
		off := c.start + int64(op.S)*c.elem
		n := int64(op.L) * c.elem
		if rem := end - off; n > rem {
			n = rem
		}
		if n <= 0 {
			continue
		}
		for t := 0; t < op.T && more(); t++ {
			attempted++
			var opErr error
			var tc trace.Ctx
			kind := "read"
			if op.Kind == workload.Write {
				kind = "write"
			}
			// Each op gets its own root span; its link rides the request so
			// the server's serve span — and the remote columns under it —
			// join the same trace.
			if shared.tr != nil {
				tcOp := trace.OpRead
				if op.Kind == workload.Write {
					tcOp = trace.OpWrite
				}
				tc = shared.tr.BeginClient(tcOp, int32(c.id+1), trace.Link{})
			}
			start := time.Now()
			if op.Kind == workload.Read {
				_, opErr = dev.ReadAtLink(opBuf[:n], off, tc.Link())
				shared.readLat.Observe(time.Since(start))
				if opErr == nil {
					pattern(want[:n], off, c.seed)
					if !bytesEqual(opBuf[:n], want[:n]) {
						opErr = fmt.Errorf("data mismatch at %d+%d", off, n)
					}
				}
			} else {
				// Writes rewrite the same pattern, so the region stays
				// verifiable no matter how reads and writes interleave.
				pattern(opBuf[:n], off, c.seed)
				_, opErr = dev.WriteAtLink(opBuf[:n], off, tc.Link())
				shared.writeLat.Observe(time.Since(start))
			}
			if shared.tr != nil {
				shared.tr.End(tc, n, opErr != nil)
				shared.noteOp(int64(time.Since(start)), tc.Link().Trace, off, kind)
			}
			if opErr != nil {
				shared.errs.Add(1)
				if !logged {
					fmt.Fprintf(os.Stderr, "loadgen: op error (first for this client): %v\n", opErr)
					logged = true
				}
				continue
			}
			shared.execs.Add(1)
			shared.bytes.Add(n)
		}
	}
	return nil
}

// pattern fills p with the byte each volume position deterministically holds:
// a function of absolute offset and seed only, so any client (and any phase)
// can regenerate the expected bytes for any range without shared state.
func pattern(p []byte, off, seed int64) {
	x := uint64(off)*2654435761 + uint64(seed)
	for i := range p {
		p[i] = byte(x)
		x += 2654435761
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func profileByName(name string) (workload.Profile, error) {
	switch strings.ToLower(name) {
	case "readonly", "read-only":
		return workload.ReadOnly, nil
	case "readintensive", "read-intensive":
		return workload.ReadIntensive, nil
	case "mixed":
		return workload.Mixed, nil
	}
	return workload.Profile{}, fmt.Errorf("unknown profile %q (readonly, readintensive, mixed)", name)
}

func report(w *os.File, res summary, rs, ws obs.HistogramSnapshot) {
	fmt.Fprintf(w, "loadgen: %s %q x%d: %d ops, %.1f MB/s, %.0f ops/s, %d errors\n",
		res.code, res.workload, res.clients, res.executions, res.mbPerSec, res.opsPerSec, res.errors)
	fmt.Fprintf(w, "  read  (%d): p50 %s  p95 %s  p99 %s  p999 %s  max %s\n",
		rs.Count, ms(rs.P50Nanos), ms(rs.P95Nanos), ms(rs.P99Nanos), ms(rs.P999Nanos), ms(rs.MaxNanos))
	fmt.Fprintf(w, "  write (%d): p50 %s  p95 %s  p99 %s  p999 %s  max %s\n",
		ws.Count, ms(ws.P50Nanos), ms(ws.P95Nanos), ms(ws.P99Nanos), ms(ws.P999Nanos), ms(ws.MaxNanos))
}

// appendMarkdown appends the latency table CI shows in the job summary,
// followed by the slowest ops with their trace IDs when the run was traced —
// each ID greps straight into the merged Chrome trace and the flight
// recorder's event dump.
func appendMarkdown(path string, res summary, rs, ws obs.HistogramSnapshot, slowest []slowOp) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = fmt.Fprintf(f, `### loadgen: %s, %q, %d clients

| op | count | p50 | p95 | p99 | p999 | max |
|---|---:|---:|---:|---:|---:|---:|
| read | %d | %s | %s | %s | %s | %s |
| write | %d | %s | %s | %s | %s | %s |

%d executions, %.1f MB/s, %.0f ops/s, **%d errors**

`,
		res.code, res.workload, res.clients,
		rs.Count, ms(rs.P50Nanos), ms(rs.P95Nanos), ms(rs.P99Nanos), ms(rs.P999Nanos), ms(rs.MaxNanos),
		ws.Count, ms(ws.P50Nanos), ms(ws.P95Nanos), ms(ws.P99Nanos), ms(ws.P999Nanos), ms(ws.MaxNanos),
		res.executions, res.mbPerSec, res.opsPerSec, res.errors)
	if err != nil || len(slowest) == 0 {
		return err
	}
	if _, err = fmt.Fprintf(f, "Slowest ops:\n\n| op | latency | offset | trace |\n|---|---:|---:|---|\n"); err != nil {
		return err
	}
	for _, so := range slowest {
		if _, err = fmt.Fprintf(f, "| %s | %s | %d | `%016x` |\n", so.kind, ms(so.durNs), so.off, so.trace); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(f)
	return err
}

func ms(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(2)
}
