// Command bench is the benchmark-regression harness: it drives the live RAID
// engine (internal/raid on in-memory devices) through a fixed matrix of
// array codes × the paper's <S,L,T> workload profiles and emits a
// machine-readable BENCH_<rev>.json artifact — ns/op, MB/s, read/write p99,
// per-disk load counts and their coefficient of variation, and the executed
// XOR volume. Unlike `paper ioload` (which simulates the paper's accounting
// model), every number here is measured on the real engine.
//
// It doubles as the regression comparator CI runs over two artifacts:
//
//	bench [-quick] [-out FILE] [-rev REV] [-codes rdp,dcode,...] [-notiming]
//	      [-conc N] [-delay D -inflight N]
//	bench -compare BASE.json CURRENT.json [-threshold 0.10]
//
// The comparator exits 1 when any metric is more than threshold worse in
// CURRENT than in BASE (timing metrics only when both files carry timing —
// committed baselines are stripped with -notiming so CI's gate stays
// machine-independent; see internal/benchfmt).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dcode/internal/benchfmt"
	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/raid"
	"dcode/internal/trace"
	"dcode/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "small matrix for CI smoke runs (p=5, fewer ops)")
	out := flag.String("out", "", "output path (default BENCH_<rev>.json)")
	rev := flag.String("rev", defaultRev(), "revision label embedded in the artifact")
	codeList := flag.String("codes", "", "comma-separated code ids (default: the paper's comparison set)")
	notiming := flag.Bool("notiming", false, "strip timing fields (for committed cross-machine baselines)")
	compare := flag.Bool("compare", false, "compare two BENCH files: bench -compare BASE CURRENT")
	threshold := flag.Float64("threshold", 0.10, "relative regression threshold for -compare")
	p := flag.Int("p", 0, "prime parameter (default 7, quick: 5)")
	elem := flag.Int("elem", 0, "element size in bytes (default 2048, quick: 512)")
	stripes := flag.Int64("stripes", 0, "stripes per disk (default 64, quick: 16)")
	ops := flag.Int("ops", 0, "operations per workload (default 400, quick: 120)")
	maxTimes := flag.Int("maxtimes", 0, "max repeat count T per op (default 4, quick: 2)")
	seed := flag.Int64("seed", 42, "workload generator seed")
	conc := flag.Int("conc", 1, "array concurrency: goroutine fan-out bound (0 = GOMAXPROCS)")
	delay := flag.Duration("delay", 0, "per-call positioning delay modeled on every device (blockdev.Delayed; 0 = raw memory)")
	perbyte := flag.Duration("perbyte", 0, "per-byte transfer delay modeled on every device (pairs with -delay)")
	traceOn := flag.Bool("trace", false, "run every cell with per-op tracing enabled (span counts to stderr)")
	inflight := flag.Int("inflight", 0, "max concurrent ops per delayed device (pairs with -delay; 0 = unlimited)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments (use -compare BASE CURRENT to diff)")
		os.Exit(2)
	}

	cfg := benchfmt.Config{
		P: 7, ElemSize: 2048, Stripes: 64, Ops: 400, MaxLen: 20, MaxTimes: 4,
		Seed: *seed, Quick: *quick, Concurrency: *conc,
	}
	if *quick {
		cfg.P, cfg.ElemSize, cfg.Stripes, cfg.Ops, cfg.MaxTimes = 5, 512, 16, 120, 2
	}
	if *p > 0 {
		cfg.P = *p
	}
	if *elem > 0 {
		cfg.ElemSize = *elem
	}
	if *stripes > 0 {
		cfg.Stripes = *stripes
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *maxTimes > 0 {
		cfg.MaxTimes = *maxTimes
	}
	if *delay > 0 {
		cfg.DelayNs = delay.Nanoseconds()
	}
	if *perbyte > 0 {
		cfg.PerByteNs = perbyte.Nanoseconds()
	}
	if *inflight > 0 {
		cfg.MaxInflight = *inflight
	}

	entries := codes.Comparison()
	if *codeList != "" {
		entries = entries[:0]
		for _, id := range strings.Split(*codeList, ",") {
			e, err := codes.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			entries = append(entries, e)
		}
	}

	file := benchfmt.File{
		Schema:    benchfmt.SchemaVersion,
		Rev:       *rev,
		GoVersion: runtime.Version(),
		Timing:    true,
		Config:    cfg,
	}
	for _, e := range entries {
		for _, prof := range workload.Profiles {
			res, err := runCell(e, prof, cfg, *traceOn)
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", e.ID, prof.Name, err))
			}
			file.Results = append(file.Results, res)
			fmt.Fprintf(os.Stderr, "bench: %-10s %-24s %8.0f ns/op %8.1f MB/s cv=%.3f\n",
				e.ID, prof.Name, res.NsPerOp, res.MBPerSec, res.LoadCV)
		}
	}
	if *notiming {
		file.StripTiming()
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *rev)
	}
	if err := benchfmt.WriteFile(path, file); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(file.Results))
}

// runCell benchmarks one code under one workload profile on a fresh array.
// traceOn runs the cell with an enabled tracer (the CI smoke for the traced
// data path — timing results then include tracing overhead by design).
func runCell(e codes.Entry, prof workload.Profile, cfg benchfmt.Config, traceOn bool) (benchfmt.Result, error) {
	code, err := e.New(cfg.P)
	if err != nil {
		return benchfmt.Result{}, err
	}
	devs := make([]blockdev.Device, code.Cols())
	devSize := cfg.Stripes * int64(code.Rows()) * int64(cfg.ElemSize)
	for i := range devs {
		devs[i] = blockdev.NewMem(devSize)
		if cfg.DelayNs > 0 || cfg.PerByteNs > 0 {
			devs[i] = &blockdev.Delayed{
				Device:      devs[i],
				Delay:       time.Duration(cfg.DelayNs),
				PerByte:     time.Duration(cfg.PerByteNs),
				MaxInflight: cfg.MaxInflight,
			}
		}
	}
	// Concurrency 0 falls through to the array's GOMAXPROCS default;
	// WithConcurrency ignores non-positive values by design.
	opts := []raid.Option{raid.WithConcurrency(cfg.Concurrency)}
	var tr *trace.Tracer
	if traceOn {
		tr = trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
		tr.SetSlowThreshold(time.Millisecond)
		opts = append(opts, raid.WithTracer(tr))
	}
	a, err := raid.New(code, devs, cfg.ElemSize, cfg.Stripes, opts...)
	if err != nil {
		return benchfmt.Result{}, err
	}
	if tr != nil {
		tr.Enable()
	}

	// Pre-fill the volume so reads hit real data and writes exercise the
	// RMW-vs-reconstruct strategy choice, then open the measured window.
	fill := make([]byte, a.Size())
	for i := range fill {
		fill[i] = byte(uint32(i)*2654435761 + uint32(cfg.Seed))
	}
	if _, err := a.WriteAt(fill, 0); err != nil {
		return benchfmt.Result{}, err
	}
	a.ResetMetrics()

	totalElems := int(cfg.Stripes) * code.DataElems()
	opsList, err := workload.Generate(workload.Config{
		Ops: cfg.Ops, MaxLen: cfg.MaxLen, MaxTimes: cfg.MaxTimes,
		DataElems: totalElems, Seed: cfg.Seed,
	}, prof)
	if err != nil {
		return benchfmt.Result{}, err
	}

	res := benchfmt.Result{Code: e.ID, Workload: prof.Name}
	buf := make([]byte, (cfg.MaxLen+1)*cfg.ElemSize)
	start := time.Now()
	for _, op := range opsList {
		off := int64(op.S) * int64(cfg.ElemSize)
		n := int64(op.L) * int64(cfg.ElemSize)
		if rem := a.Size() - off; n > rem {
			n = rem
		}
		if n <= 0 {
			continue
		}
		for t := 0; t < op.T; t++ {
			if op.Kind == workload.Read {
				_, err = a.ReadAt(buf[:n], off)
			} else {
				_, err = a.WriteAt(buf[:n], off)
			}
			if err != nil {
				return benchfmt.Result{}, err
			}
			res.Executions++
			res.BytesMoved += n
		}
	}
	elapsed := time.Since(start)

	snap := a.Snapshot()
	res.PerDisk = snap.Load.PerDisk
	res.LoadCV = snap.Load.CV
	res.LoadLF = snap.Load.LF
	res.EncodeXOROps = snap.XOR.EncodeOps
	res.DecodeXOROps = snap.XOR.DecodeOps
	if res.Executions > 0 {
		res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(res.Executions)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.MBPerSec = float64(res.BytesMoved) / (1 << 20) / sec
	}
	res.ReadP99Ns = snap.Latency.Read.P99Nanos
	res.ReadP999Ns = snap.Latency.Read.P999Nanos
	res.WriteP99Ns = snap.Latency.Write.P99Nanos
	res.WriteP999Ns = snap.Latency.Write.P999Nanos
	if tr != nil {
		st := tr.Stats()
		if st.Recorded == 0 {
			return benchfmt.Result{}, fmt.Errorf("tracing enabled but no spans recorded")
		}
		fmt.Fprintf(os.Stderr, "bench: %-10s %-24s trace: %d spans (%d slow, %d evicted)\n",
			e.ID, res.Workload, st.Recorded, st.SlowCaptured, st.Dropped)
	}
	return res, nil
}

func runCompare(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare BASE.json CURRENT.json")
		return 2
	}
	base, err := benchfmt.ReadFile(args[0])
	if err != nil {
		fatal(err)
	}
	current, err := benchfmt.ReadFile(args[1])
	if err != nil {
		fatal(err)
	}
	regs := benchfmt.Compare(base, current, threshold)
	if len(regs) == 0 {
		fmt.Printf("no regressions: %s vs %s (threshold %.0f%%, timing %v)\n",
			base.Rev, current.Rev, threshold*100, base.Timing && current.Timing)
		return 0
	}
	fmt.Fprintf(os.Stderr, "%d regression(s) beyond %.0f%% (%s -> %s):\n",
		len(regs), threshold*100, base.Rev, current.Rev)
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, " ", r)
	}
	return 1
}

// defaultRev labels the artifact: CI's commit SHA when available, else a
// local placeholder (deterministic, so repeated local runs overwrite one
// file instead of accumulating).
func defaultRev() string {
	if sha := os.Getenv("GITHUB_SHA"); len(sha) >= 8 {
		return sha[:8]
	}
	return "local"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
