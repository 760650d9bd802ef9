// Command raidserve serves a RAID-6 array — or, in -column mode, a single
// column file — over TCP using the blockserve wire protocol, so many
// concurrent clients (cmd/loadgen, blockdev.Remote) can read and write one
// volume across the network.
//
//	raidserve -addr :9640 -dir /tmp/a -code dcode -p 5 -elem 4096 -stripes 256 \
//	          [-remotes 3=host:9650,...] [-metrics :9641] \
//	          [-max-clients 256] [-max-inflight 128] [-conc 0] [-trace]
//	raidserve -column -addr :9650 -file /tmp/col3.img -size 4194304
//
// Array mode creates (or reopens) a file-backed array in -dir, one disk
// image per column, writing the same array.json descriptor raidctl uses.
// Columns listed in -remotes are network-attached instead: the device is a
// blockdev.Remote speaking this same protocol to another raidserve -column
// process, so a column can live on a different node and a dead remote
// behaves exactly like a failed local disk (degraded reads, rebuild on
// reconnect).
//
// With -metrics the process also serves the observability HTTP endpoints
// (/stats JSON, /metrics Prometheus text, pprof); the block
// service's per-client op/byte tallies are merged into Array.Snapshot(), so
// one scrape covers the array and the clients hammering it. SIGINT/SIGTERM
// drain gracefully: accept stops, in-flight requests finish, then
// connections close.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/codes"
	"dcode/internal/obs"
	"dcode/internal/raid"
	"dcode/internal/trace"
)

// arrayMeta mirrors raidctl's array.json so the two tools can open the same
// directory.
type arrayMeta struct {
	Code    string `json:"code"`
	P       int    `json:"p"`
	Elem    int    `json:"elem"`
	Stripes int64  `json:"stripes"`
	Failed  []int  `json:"failed"`
	Journal bool   `json:"journal,omitempty"`
}

func main() {
	addr := flag.String("addr", ":9640", "TCP address to serve the block protocol on")
	dir := flag.String("dir", "", "array directory (array mode; created if missing)")
	codeID := flag.String("code", "dcode", "code id (when creating the array)")
	p := flag.Int("p", 5, "prime parameter (when creating the array)")
	elem := flag.Int("elem", 4096, "element size in bytes (when creating the array)")
	stripes := flag.Int64("stripes", 256, "stripes per disk (when creating the array)")
	remotes := flag.String("remotes", "", "comma-separated col=host:port pairs: serve those columns from remote blockserve endpoints")
	metricsAddr := flag.String("metrics", "", "also serve /stats, /metrics and pprof on this HTTP address")
	maxClients := flag.Int("max-clients", 256, "maximum concurrently connected clients")
	maxInflight := flag.Int("max-inflight", 128, "maximum requests being served at once (admission control)")
	conc := flag.Int("conc", 0, "array concurrency: goroutine fan-out bound (0 = GOMAXPROCS)")
	traceOn := flag.Bool("trace", false, "enable per-op tracing (request spans carry client tags)")
	traceCap := flag.Int("trace-cap", trace.DefaultCapacity, "trace ring capacity in spans")
	eventsCap := flag.Int("events-cap", obs.DefaultEventCapacity, "flight-recorder ring capacity in events")
	node := flag.String("node", "", "node name in /trace and /events dumps (default: the -addr value)")
	remoteTimeout := flag.Duration("remote-timeout", 2*time.Second, "per-request deadline for remote columns")
	remoteRetries := flag.Int("remote-retries", 3, "attempts per remote-column operation")
	column := flag.Bool("column", false, "column mode: serve a single file-backed device instead of an array")
	file := flag.String("file", "", "backing file (column mode)")
	size := flag.Int64("size", 0, "device size in bytes (column mode)")
	ready := flag.String("ready", "", "write the bound address to this file once listening (for scripts)")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("raidserve: ")

	nodeName := *node
	if nodeName == "" {
		nodeName = *addr
	}

	var (
		backend blockserve.Backend
		arr     *raid.Array
		tr      *trace.Tracer
	)
	if *traceOn {
		tr = trace.New(*traceCap, trace.DefaultSlowCapacity)
		tr.SetSlowThreshold(10 * time.Millisecond)
	}
	// The flight recorder is always on: it retains only rare events, costs a
	// few atomics when one fires, and is the postmortem of record on panic.
	rec := obs.NewRecorder(*eventsCap)

	if *column {
		if *file == "" || *size <= 0 {
			log.Fatal("column mode requires -file and -size")
		}
		dev, err := blockdev.OpenFile(*file, *size)
		if err != nil {
			log.Fatal(err)
		}
		defer dev.Close()
		backend = columnBackend{dev}
		log.Printf("serving column file %s (%d bytes)", *file, *size)
	} else {
		if *dir == "" {
			log.Fatal("array mode requires -dir (or pass -column)")
		}
		remoteCols, err := parseRemotes(*remotes)
		if err != nil {
			log.Fatal(err)
		}
		arr, err = openArray(*dir, *codeID, *p, *elem, *stripes, remoteCols,
			*conc, tr, rec, *remoteTimeout, *remoteRetries)
		if err != nil {
			log.Fatal(err)
		}
		backend = &arrayBackend{a: arr}
		log.Printf("serving %s array from %s: %d disks, %d bytes usable, %d remote columns",
			arr.Code().Name(), *dir, arr.Code().Cols(), arr.Size(), len(remoteCols))
	}
	if tr != nil {
		tr.Enable()
	}

	srv := blockserve.New(backend, blockserve.Config{
		MaxClients:  *maxClients,
		MaxInflight: *maxInflight,
		Tracer:      tr,
		Events:      rec,
		Logf:        log.Printf,
	})
	if arr != nil {
		arr.SetServerStats(srv.Snapshot)
	}

	if *metricsAddr != "" {
		snapshot := func() any {
			if arr != nil {
				return arr.Snapshot()
			}
			return srv.Snapshot()
		}
		collect := func(pw *obs.PromWriter) {
			if arr != nil {
				s := arr.Snapshot()
				s.WriteProm(pw)
			}
		}
		mux := obs.NewMux(snapshot, collect)
		// /trace dumps the span rings as one trace.NodeDump; raidctl trace
		// fetches several nodes' dumps and merges them on a common timeline.
		// TimeNs is sampled per request — the merge tool pairs it with the
		// request's RTT midpoint to estimate this node's clock offset.
		mux.Handle("/trace", obs.Handler(func() any {
			nd := trace.NodeDump{Node: nodeName, TimeNs: time.Now().UnixNano()}
			if tr != nil {
				nd.Spans = tr.Spans()
				// Slow spans may outlive the main ring; add the ones the
				// ring no longer holds.
				seen := make(map[uint64]bool, len(nd.Spans))
				for _, sp := range nd.Spans {
					seen[sp.ID] = true
				}
				for _, sp := range tr.SlowSpans() {
					if !seen[sp.ID] {
						nd.Spans = append(nd.Spans, sp)
					}
				}
			}
			return nd
		}))
		// /events dumps the flight recorder; raidctl events renders it.
		mux.Handle("/events", obs.Handler(func() any {
			return obs.EventsDump{
				Node:     nodeName,
				TimeNs:   time.Now().UnixNano(),
				Recorded: rec.Recorded(),
				Events:   rec.Events(),
			}
		}))
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (max-clients %d, max-inflight %d)", ln.Addr(), *maxClients, *maxInflight)
	if *ready != "" {
		if err := os.WriteFile(*ready, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		<-done
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("bye")
}

// parseRemotes parses "3=host:9650,4=host:9651" into a column→address map.
func parseRemotes(s string) (map[int]string, error) {
	out := map[int]string{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		col, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -remotes entry %q (want col=host:port)", part)
		}
		c, err := strconv.Atoi(col)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("bad column in -remotes entry %q", part)
		}
		if addr == "" {
			return nil, fmt.Errorf("empty address in -remotes entry %q", part)
		}
		if _, dup := out[c]; dup {
			return nil, fmt.Errorf("column %d listed twice in -remotes", c)
		}
		out[c] = addr
	}
	return out, nil
}

// openArray creates or reopens the file-backed array in dir, substituting
// Remote devices for the columns in remoteCols.
func openArray(dir, codeID string, p, elem int, stripes int64, remoteCols map[int]string,
	conc int, tr *trace.Tracer, rec *obs.Recorder, rtimeout time.Duration, rretries int) (*raid.Array, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := arrayMeta{Code: codeID, P: p, Elem: elem, Stripes: stripes}
	metaPath := filepath.Join(dir, "array.json")
	if b, err := os.ReadFile(metaPath); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", metaPath, err)
		}
	} else {
		b, _ := json.MarshalIndent(m, "", "  ")
		if err := os.WriteFile(metaPath, b, 0o644); err != nil {
			return nil, err
		}
	}
	entry, err := codes.ByID(m.Code)
	if err != nil {
		return nil, err
	}
	code, err := entry.New(m.P)
	if err != nil {
		return nil, err
	}
	for col := range remoteCols {
		if col >= code.Cols() {
			return nil, fmt.Errorf("-remotes column %d out of range for %d-column %s", col, code.Cols(), code.Name())
		}
	}
	devSize := m.Stripes * int64(code.Rows()) * int64(m.Elem)
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		if addr, ok := remoteCols[i]; ok {
			r, err := blockdev.DialRemote(addr,
				blockdev.WithRequestTimeout(rtimeout),
				blockdev.WithRetry(rretries, 10*time.Millisecond))
			if err != nil {
				return nil, fmt.Errorf("column %d: %w", i, err)
			}
			if r.Size() < devSize {
				return nil, fmt.Errorf("column %d: remote holds %d bytes, need %d", i, r.Size(), devSize)
			}
			r.SetEvents(rec, int32(i))
			log.Printf("column %d served by remote %s (caps 0x%x)", i, addr, r.Caps())
			devs[i] = r
			continue
		}
		d, err := blockdev.OpenFile(filepath.Join(dir, fmt.Sprintf("disk%d.img", i)), devSize)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	opts := []raid.Option{raid.WithConcurrency(conc), raid.WithEvents(rec)}
	if tr != nil {
		opts = append(opts, raid.WithTracer(tr))
	}
	a, err := raid.New(code, devs, m.Elem, m.Stripes, opts...)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Failed {
		if err := a.FailDisk(f); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// arrayBackend adapts *raid.Array to the blockserve Backend and its admin
// interfaces.
type arrayBackend struct {
	a *raid.Array
}

func (b *arrayBackend) ReadAt(p []byte, off int64) (int, error)  { return b.a.ReadAt(p, off) }
func (b *arrayBackend) WriteAt(p []byte, off int64) (int, error) { return b.a.WriteAt(p, off) }
func (b *arrayBackend) Size() int64                              { return b.a.Size() }

// ReadAtLink / WriteAtLink implement blockserve.LinkedBackend: the server's
// serve span becomes the parent of the array's op span, so a request that
// recurses into a remote column carries one unbroken trace across all three
// processes.
func (b *arrayBackend) ReadAtLink(p []byte, off int64, parent trace.Link) (int, error) {
	return b.a.ReadAtLink(p, off, parent)
}

func (b *arrayBackend) WriteAtLink(p []byte, off int64, parent trace.Link) (int, error) {
	return b.a.WriteAtLink(p, off, parent)
}

// Flush is a no-op: the array writes through to its devices synchronously.
func (b *arrayBackend) Flush() error { return nil }

// StatusJSON serves the full observability snapshot plus the fields a
// protocol client needs to mount the volume.
func (b *arrayBackend) StatusJSON() ([]byte, error) {
	return json.Marshal(struct {
		Code     string        `json:"code"`
		Size     int64         `json:"size"`
		ElemSize int           `json:"elem_size"`
		Failed   []int         `json:"failed"`
		Snapshot raid.Snapshot `json:"snapshot"`
	}{
		Code:     b.a.Code().Name(),
		Size:     b.a.Size(),
		ElemSize: b.a.ElemSize(),
		Failed:   b.a.FailedDisks(),
		Snapshot: b.a.Snapshot(),
	})
}

func (b *arrayBackend) Rebuild(disk int) error { return b.a.Rebuild(disk) }

// columnBackend adapts a FileDevice to the Backend + Flusher interfaces for
// -column mode.
type columnBackend struct {
	*blockdev.FileDevice
}

func (c columnBackend) Flush() error { return c.Sync() }
