// Command raidctl manages persistent file-backed RAID-6 arrays, each in an
// array directory (internal/arraydir): a descriptor, one image file per disk
// and, with create -journal, a write-intent journal. Every verb opens the
// array through that package, so a journaled array replays at each open and
// the failed disks it records stay failed until rebuilt; raidserve opens the
// same directories the same way.
//
//	raidctl create -dir /tmp/a -code dcode -p 7 -elem 4096 -stripes 256
//	raidctl info   -dir /tmp/a
//	raidctl write  -dir /tmp/a -off 0 -in file.bin
//	raidctl read   -dir /tmp/a -off 0 -n 1024 -out out.bin
//	raidctl fail   -dir /tmp/a -disk 3
//	raidctl rebuild -dir /tmp/a -disk 3
//	raidctl scrub  -dir /tmp/a
//	raidctl stats  -dir /tmp/a [-reset] [-serve :8080] [-watch 1s]
//	raidctl trace  -dir /tmp/a -o trace.json [-ops 64] [-profile mixed] [-slow 1ms]
//	raidctl trace  -addr host:9641 -o trace.json
//	raidctl trace  -merge host1:9641,host2:9641,dump.json -o merged.json [-require-linked 3]
//	raidctl events -addr host:9641 [-assert-kind disk_failed [-assert-trace]]
//	raidctl top    -dir /tmp/a [-drive] [-interval 1s] [-count 10]
//
// Every operation that touches the volume merges the run's observability
// snapshot into stats.json in the array directory, so `raidctl stats` reports
// counters, latency histograms and the per-disk load tally accumulated across
// process lifetimes. With -serve the same snapshot is exposed over HTTP at
// /stats and in Prometheus text format at /metrics (plus the pprof
// endpoints), re-read per request so a watcher sees arrays being driven by
// other raidctl invocations; with -watch the terminal summary redraws in
// place.
//
// `raidctl trace` drives a synthetic workload with per-op tracing enabled and
// dumps the spans as a Chrome trace-event file (load it at chrome://tracing
// or https://ui.perfetto.dev). With -addr it instead scrapes a running
// raidserve's /trace endpoint, and with -merge it fetches several nodes'
// dumps (or reads dump files), estimates each node's clock offset from
// request round-trip midpoints, and emits one Chrome trace with a track per
// node — client spans and the server spans they caused nest on one
// timeline. `raidctl events` prints a node's flight-recorder dump.
// `raidctl top` is a live terminal view of the per-disk load window — with -drive it generates its own workload, without
// it it watches stats.json as other raidctl processes update it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcode/internal/arraydir"
	"dcode/internal/obs"
	"dcode/internal/raid"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	codeID := fs.String("code", "dcode", "code id (create)")
	p := fs.Int("p", 7, "prime parameter (create)")
	elem := fs.Int("elem", 4096, "element size in bytes (create)")
	stripes := fs.Int64("stripes", 256, "stripes per disk (create)")
	journal := fs.Bool("journal", false, "attach a write-intent journal (create)")
	off := fs.Int64("off", 0, "volume byte offset (read/write)")
	n := fs.Int("n", 0, "bytes to read (read)")
	inFile := fs.String("in", "-", "input file for write, - for stdin")
	outFile := fs.String("out", "-", "output file for read, - for stdout")
	disk := fs.Int("disk", -1, "disk index (fail/rebuild)")
	reset := fs.Bool("reset", false, "clear the accumulated statistics (stats)")
	serve := fs.String("serve", "", "serve stats over HTTP at this address (stats)")
	watch := fs.Duration("watch", 0, "redraw the stats summary at this interval (stats)")
	traceOut := fs.String("o", "trace.json", "Chrome trace-event output file (trace)")
	wlOps := fs.Int("ops", 64, "synthetic operations to generate (trace, top -drive)")
	profile := fs.String("profile", "mixed", "workload profile: readonly|readintensive|mixed (trace, top -drive)")
	slow := fs.Duration("slow", 0, "slow-op capture threshold, 0 disables (trace)")
	seed := fs.Int64("seed", 42, "workload generator seed (trace, top -drive)")
	interval := fs.Duration("interval", time.Second, "refresh interval (top)")
	count := fs.Int("count", 0, "number of refreshes, 0 = until interrupted (top)")
	drive := fs.Bool("drive", false, "generate workload in-process while displaying (top)")
	addr := fs.String("addr", "", "metrics address of a running raidserve (trace/events)")
	merge := fs.String("merge", "", "comma-separated metrics addresses or dump files to merge (trace)")
	requireLinked := fs.Int("require-linked", 0, "fail unless one trace links this many nodes (trace -merge)")
	assertKind := fs.String("assert-kind", "", "fail unless an event of this kind was retained (events)")
	assertTrace := fs.Bool("assert-trace", false, "with -assert-kind: the event must carry a trace ID (events)")
	fs.Parse(os.Args[2:])
	// The network verbs talk to running servers, not an array directory.
	networkVerb := cmd == "events" || (cmd == "trace" && (*addr != "" || *merge != ""))
	if *dir == "" && !networkVerb {
		fatal(fmt.Errorf("-dir is required"))
	}

	switch cmd {
	case "create":
		create(*dir, *codeID, *p, *elem, *stripes, *journal)
	case "info":
		info(*dir)
	case "write":
		doWrite(*dir, *off, *inFile)
	case "read":
		doRead(*dir, *off, *n, *outFile)
	case "fail":
		fail(*dir, *disk)
	case "rebuild":
		rebuild(*dir, *disk)
	case "scrub":
		scrub(*dir)
	case "stats":
		stats(*dir, *reset, *serve, *watch)
	case "trace":
		switch {
		case *merge != "":
			traceRemote(strings.Split(*merge, ","), *traceOut, *requireLinked)
		case *addr != "":
			traceRemote([]string{*addr}, *traceOut, *requireLinked)
		default:
			doTrace(*dir, *traceOut, *wlOps, *profile, *slow, *seed)
		}
	case "events":
		eventsCmd(*addr, *assertKind, *assertTrace)
	case "top":
		top(*dir, *interval, *count, *drive, *wlOps, *profile, *seed, os.Stdout)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: raidctl create|info|write|read|fail|rebuild|scrub|stats|trace|events|top -dir DIR [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "raidctl:", err)
	os.Exit(1)
}

// mount opens dir's array, exiting on error.
func mount(dir string, opts ...raid.Option) (*raid.Array, arraydir.Descriptor) {
	a, d, err := arraydir.Open(dir, nil, opts...)
	if err != nil {
		fatal(err)
	}
	return a, d
}

func create(dir, codeID string, p, elem int, stripes int64, journal bool) {
	d := arraydir.Descriptor{Code: codeID, P: p, Elem: elem, Stripes: stripes, Journal: journal}
	a, err := arraydir.Create(dir, d, nil)
	if err != nil {
		fatal(err)
	}
	persistStats(dir, a)
	fmt.Printf("created %s array: %d disks, %d B elements, %d stripes, %.1f MiB usable\n",
		a.Code().Name(), a.Code().Cols(), d.Elem, d.Stripes, float64(a.Size())/(1<<20))
}

func info(dir string) {
	a, m := mount(dir)
	c := a.Code()
	metrics := c.ComputeMetrics()
	fmt.Printf("code:      %s (p=%d, %s)\n", c.Name(), m.P, m.Code)
	fmt.Printf("disks:     %d (%d×%d elements per stripe)\n", c.Cols(), c.Rows(), c.Cols())
	fmt.Printf("element:   %d bytes, %d stripes\n", m.Elem, m.Stripes)
	fmt.Printf("usable:    %.1f MiB (storage efficiency %.3f)\n", float64(a.Size())/(1<<20), metrics.StorageEfficiency)
	fmt.Printf("journal:   %v\n", m.Journal)
	fmt.Printf("failed:    %v\n", a.FailedDisks())
}

func doWrite(dir string, off int64, inFile string) {
	a, _ := mount(dir)
	var r io.Reader = os.Stdin
	if inFile != "-" {
		f, err := os.Open(inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	if _, err := a.WriteAt(data, off); err != nil {
		fatal(err)
	}
	persistFailed(dir, a)
	persistStats(dir, a)
	fmt.Printf("wrote %d bytes at offset %d\n", len(data), off)
}

func doRead(dir string, off int64, n int, outFile string) {
	if n <= 0 {
		fatal(fmt.Errorf("-n must be positive"))
	}
	a, _ := mount(dir)
	buf := make([]byte, n)
	if _, err := a.ReadAt(buf, off); err != nil {
		fatal(err)
	}
	persistFailed(dir, a)
	persistStats(dir, a)
	if err := writeOutput(outFile, buf); err != nil {
		fatal(err)
	}
}

// writeOutput writes data to stdout ("-") or to a freshly created file. The
// Close error is part of the contract: on many filesystems write-back
// failures only surface there, and a read that silently drops its output
// file defeats the point of running it.
func writeOutput(outFile string, data []byte) error {
	if outFile == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func fail(dir string, disk int) {
	a, _ := mount(dir)
	if err := a.FailDisk(disk); err != nil {
		fatal(err)
	}
	persistFailed(dir, a)
	fmt.Printf("failed disks now: %v\n", a.FailedDisks())
}

func rebuild(dir string, disk int) {
	mount(dir) // a journaled array replays over the old image first
	// Blank the replacement image, as a swapped drive would be, and reopen
	// over it.
	if err := arraydir.Blank(dir, disk); err != nil {
		fatal(err)
	}
	a, _ := mount(dir)
	if err := a.Rebuild(disk); err != nil {
		fatal(err)
	}
	persistFailed(dir, a)
	persistStats(dir, a)
	fmt.Printf("disk %d rebuilt; failed disks now: %v\n", disk, a.FailedDisks())
}

func scrub(dir string) {
	a, _ := mount(dir)
	fixed, err := a.Scrub()
	if err != nil {
		fatal(err)
	}
	persistStats(dir, a)
	fmt.Printf("scrub complete: %d stripes repaired\n", fixed)
}

// persistFailed records the failed disks, including those the array
// discovered during this run.
func persistFailed(dir string, a *raid.Array) {
	if err := arraydir.SaveFailed(dir, a); err != nil {
		fatal(err)
	}
}

func statsPath(dir string) string { return filepath.Join(dir, "stats.json") }

// readStats returns the accumulated snapshot, zero-valued when none exists
// yet (Merge adopts the identity fields from the first contribution).
func readStats(dir string) (raid.Snapshot, error) {
	var s raid.Snapshot
	b, err := os.ReadFile(statsPath(dir))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return raid.Snapshot{}, fmt.Errorf("corrupt stats.json (run `raidctl stats -reset`): %w", err)
	}
	return s, nil
}

func loadStats(dir string) raid.Snapshot {
	s, err := readStats(dir)
	if err != nil {
		fatal(err)
	}
	return s
}

// persistStats folds this process's observability snapshot into stats.json.
// Statistics must never fail a data operation that already succeeded, so an
// unreadable tally is restarted with a warning rather than treated as fatal.
func persistStats(dir string, a *raid.Array) {
	cum, err := readStats(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raidctl: restarting stats tally:", err)
		cum = raid.Snapshot{}
	}
	cum.Merge(a.Snapshot())
	b, err := json.MarshalIndent(cum, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(statsPath(dir), append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func stats(dir string, reset bool, serve string, watch time.Duration) {
	if reset {
		if err := os.Remove(statsPath(dir)); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
		fmt.Println("statistics cleared")
		return
	}
	// Fail early with a clear error outside an array directory.
	if _, err := arraydir.Load(dir); err != nil {
		fatal(err)
	}
	if serve != "" {
		mux := obs.NewMux(
			func() any { return loadStats(dir) },
			func(pw *obs.PromWriter) {
				s := loadStats(dir)
				s.WriteProm(pw)
			})
		fmt.Fprintf(os.Stderr, "serving stats on http://%s/stats (Prometheus at /metrics, pprof at /debug/pprof/)\n", serve)
		fatal(http.ListenAndServe(serve, mux))
	}
	if watch > 0 {
		for {
			s := loadStats(dir)
			fmt.Print(clearScreen, renderStats(&s))
			time.Sleep(watch)
		}
	}
	b, err := json.MarshalIndent(loadStats(dir), "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
