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
// Array mode opens the array directory in -dir through internal/arraydir,
// exactly as raidctl does: a journaled array replays its write-intent
// journal at mount (and refuses to mount dirty and degraded) and brackets
// every network write, and the descriptor's failed columns stay failed. A
// directory with no array yet gets one from -code, -p, -elem and -stripes,
// zero-filled as raidctl create does. Columns listed in -remotes are
// network-attached instead of image files: the device is a blockdev.Remote
// speaking this same protocol to another raidserve -column process, so a
// column can live on a different node and a dead remote behaves exactly like
// a failed local disk (degraded reads, rebuild on reconnect).
//
// With -metrics the process also serves the observability HTTP endpoints
// (/stats JSON, /metrics Prometheus text, pprof); the block
// service's per-client op/byte tallies are merged into Array.Snapshot(), so
// one scrape covers the array and the clients hammering it. SIGINT/SIGTERM
// drain gracefully: accept stops, in-flight requests finish, connections
// close, and then the array's failed columns are saved to its directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcode/internal/arraydir"
	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/obs"
	"dcode/internal/raid"
	"dcode/internal/trace"
)

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
	node := flag.String("node", "", "node name in /trace and /events dumps (default: the -addr value)")
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
		tr = trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
		tr.SetSlowThreshold(10 * time.Millisecond)
	}
	// The flight recorder is always on: it retains only rare events, costs a
	// few atomics when one fires, and is the postmortem of record on panic.
	rec := obs.NewRecorder(obs.DefaultEventCapacity)

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
		cols, err := dialRemotes(*remotes, rec)
		if err != nil {
			log.Fatal(err)
		}
		opts := []raid.Option{raid.WithConcurrency(*conc), raid.WithEvents(rec)}
		if tr != nil {
			opts = append(opts, raid.WithTracer(tr))
		}
		create := arraydir.Descriptor{Code: *codeID, P: *p, Elem: *elem, Stripes: *stripes}
		if arr, err = mountArray(*dir, create, cols, opts...); err != nil {
			log.Fatal(err)
		}
		backend = arrayBackend{arr}
		log.Printf("serving %s array from %s: %d disks, %d bytes usable, %d remote columns",
			arr.Code().Name(), *dir, arr.Code().Cols(), arr.Size(), len(cols))
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
		if err := drain(srv, done, *dir, arr); err != nil {
			log.Printf("saving failed columns: %v", err)
		}
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("bye")
}

// dialRemotes parses "3=host:9650,4=host:9651" and dials each column's
// blockserve endpoint, as a device that feeds rec on transport retries.
func dialRemotes(s string, rec *obs.Recorder) (map[int]blockdev.Device, error) {
	cols := map[int]blockdev.Device{}
	if s == "" {
		return cols, nil
	}
	for _, part := range strings.Split(s, ",") {
		col, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -remotes entry %q (want col=host:port)", part)
		}
		c, err := strconv.Atoi(col)
		if err != nil {
			return nil, fmt.Errorf("bad column in -remotes entry %q", part)
		}
		if _, dup := cols[c]; dup {
			return nil, fmt.Errorf("column %d listed twice in -remotes", c)
		}
		r, err := blockdev.DialRemote(addr)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		r.SetEvents(rec, int32(c))
		log.Printf("column %d served by remote %s (caps 0x%x)", c, addr, r.Caps())
		cols[c] = r
	}
	return cols, nil
}

// mountArray opens dir's array over cols (the network-attached columns), or
// creates it from create when dir holds no array yet.
func mountArray(dir string, create arraydir.Descriptor, cols map[int]blockdev.Device, opts ...raid.Option) (*raid.Array, error) {
	if _, err := arraydir.Load(dir); errors.Is(err, fs.ErrNotExist) {
		log.Printf("no array in %s: creating a %s p=%d array", dir, create.Code, create.P)
		return arraydir.Create(dir, create, cols, opts...)
	}
	a, _, err := arraydir.Open(dir, cols, opts...)
	return a, err
}

// drain stops srv — accept stops, in-flight requests finish, connections
// close — waits for its Serve to return on done, and then saves arr's failed
// columns to dir, as raidctl does after each command. arr is nil in column
// mode.
func drain(srv *blockserve.Server, done <-chan error, dir string, arr *raid.Array) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	<-done
	if arr == nil {
		return nil
	}
	return arraydir.SaveFailed(dir, arr)
}

// arrayBackend serves the array over the wire. The embedded *raid.Array is
// the blockserve Backend, Flusher and Rebuilder, and its LinkedBackend: the
// server's serve span becomes the parent of the array's op span, so a
// request that recurses into a remote column carries one unbroken trace
// across all three processes.
type arrayBackend struct {
	*raid.Array
}

// StatusJSON serves the full observability snapshot plus the fields a
// protocol client needs to mount the volume.
func (b arrayBackend) StatusJSON() ([]byte, error) {
	return json.Marshal(struct {
		Code     string        `json:"code"`
		Size     int64         `json:"size"`
		ElemSize int           `json:"elem_size"`
		Failed   []int         `json:"failed"`
		Snapshot raid.Snapshot `json:"snapshot"`
	}{
		Code:     b.Code().Name(),
		Size:     b.Size(),
		ElemSize: b.ElemSize(),
		Failed:   b.FailedDisks(),
		Snapshot: b.Snapshot(),
	})
}

// columnBackend adapts a FileDevice to the Backend + Flusher interfaces for
// -column mode.
type columnBackend struct {
	*blockdev.FileDevice
}

func (c columnBackend) Flush() error { return c.Sync() }
