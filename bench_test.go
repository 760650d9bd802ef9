// Benchmark harness: one benchmark per table/figure of the D-Code paper's
// evaluation, each emitting the paper's metric via b.ReportMetric, plus
// kernel microbenchmarks and ablations. See DESIGN.md §3 for the experiment
// index and EXPERIMENTS.md for measured-vs-paper results.
//
//	go test -bench 'Figure4' -benchtime 1x .   # one full Fig. 4 sweep
//	go test -bench . -benchmem ./...           # everything
package dcode_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"dcode"
	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/crs"
	"dcode/internal/erasure"
	"dcode/internal/ioload"
	"dcode/internal/readperf"
	"dcode/internal/recovery"
	"dcode/internal/rs"
	"dcode/internal/workload"
)

const benchSeed = 42

// ---------------------------------------------------------------------------
// Paper §III-D — the feature table: encoding/decoding/update complexity.

func BenchmarkFeatureTable(b *testing.B) {
	for _, e := range codes.All() {
		for _, p := range []int{7, 13} {
			c, err := e.New(p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d", e.ID, p), func(b *testing.B) {
				var m erasure.Metrics
				var decodeXOR float64
				for i := 0; i < b.N; i++ {
					m = c.ComputeMetrics()
					decodeXOR, _ = c.DecodeXORPerLost()
				}
				b.ReportMetric(m.EncodeXORPerData, "encXOR/data")
				b.ReportMetric(decodeXOR, "decXOR/lost")
				b.ReportMetric(m.UpdateAvg, "parity-upd/write")
				b.ReportMetric(m.StorageEfficiency, "storage-eff")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Paper Fig. 1 — degraded-read and partial-write footprints (p=7): the
// number of extra elements each code touches for one 5-element operation.

func BenchmarkFigure1Footprints(b *testing.B) {
	for _, id := range []string{"rdp", "xcode", "dcode"} {
		c := codes.MustNew(id, 7)
		b.Run("write/"+id, func(b *testing.B) {
			var parities int
			cells := make([]erasure.Coord, 5)
			for i := range cells {
				cells[i] = c.DataCoord(i)
			}
			for i := 0; i < b.N; i++ {
				parities = len(c.GroupsTouchedBy(cells))
			}
			b.ReportMetric(float64(parities), "parities-updated")
		})
		b.Run("degraded-read/"+id, func(b *testing.B) {
			wanted := make([]erasure.Coord, 5)
			for i := range wanted {
				wanted[i] = c.DataCoord(i)
			}
			failed := wanted[2].Col
			var extra int
			for i := 0; i < b.N; i++ {
				var err error
				_, extra, err = readperf.PlanStripeFetch(c, failed, wanted)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(extra), "extra-reads")
		})
	}
}

// ---------------------------------------------------------------------------
// Paper Fig. 3 — double-failure recovery: chain length and XOR cost for
// D-Code, disks 2 and 3, p=7.

func BenchmarkFigure3RecoveryChain(b *testing.B) {
	c := codes.MustNew("dcode", 7)
	var xors, chainLen int
	for i := 0; i < b.N; i++ {
		x, chain, err := c.SymbolicDecode(2, 3)
		if err != nil {
			b.Fatal(err)
		}
		xors, chainLen = x, len(chain)
	}
	b.ReportMetric(float64(chainLen), "elements")
	b.ReportMetric(float64(xors)/float64(chainLen), "XOR/element")
}

// ---------------------------------------------------------------------------
// Paper Fig. 4 — load balancing factor LF, and Fig. 5 — total I/O cost:
// 5 codes × 3 workloads × p ∈ {5,7,11,13}.

func benchIOLoad(b *testing.B, metric string) {
	for _, prof := range workload.Profiles {
		for _, e := range codes.Comparison() {
			for _, p := range codes.PaperPrimes {
				c, err := e.New(p)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/p=%d", prof.Name, e.ID, p)
				b.Run(name, func(b *testing.B) {
					ops, err := workload.Generate(workload.Config{
						DataElems: c.DataElems(), Seed: benchSeed,
					}, prof)
					if err != nil {
						b.Fatal(err)
					}
					var res ioload.Result
					for i := 0; i < b.N; i++ {
						res = ioload.Simulate(c, ops)
					}
					switch metric {
					case "lf":
						lf := res.LF()
						if math.IsInf(lf, 1) {
							lf = 30 // the paper plots infinity as 30
						}
						b.ReportMetric(lf, "LF")
					case "cost":
						b.ReportMetric(float64(res.Cost()), "IO-accesses")
					}
				})
			}
		}
	}
}

func BenchmarkFigure4LoadBalancing(b *testing.B) { benchIOLoad(b, "lf") }
func BenchmarkFigure5IOCost(b *testing.B)        { benchIOLoad(b, "cost") }

// ---------------------------------------------------------------------------
// Paper Fig. 6 — normal-mode read speed (and average per disk).

func BenchmarkFigure6NormalRead(b *testing.B) {
	for _, e := range codes.Comparison() {
		for _, p := range codes.PaperPrimes {
			c, err := e.New(p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d", e.ID, p), func(b *testing.B) {
				var res readperf.Result
				for i := 0; i < b.N; i++ {
					res = readperf.Normal(c, readperf.Config{Seed: benchSeed})
				}
				b.ReportMetric(res.SpeedMBps, "MB/s")
				b.ReportMetric(res.AvgSpeedMBps, "MB/s/disk")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Paper Fig. 7 — degraded-mode read speed under single data-disk failures.

func BenchmarkFigure7DegradedRead(b *testing.B) {
	for _, e := range codes.Comparison() {
		for _, p := range codes.PaperPrimes {
			c, err := e.New(p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d", e.ID, p), func(b *testing.B) {
				var res readperf.Result
				for i := 0; i < b.N; i++ {
					res, err = readperf.Degraded(c, readperf.Config{Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.SpeedMBps, "MB/s")
				b.ReportMetric(res.AvgSpeedMBps, "MB/s/disk")
				b.ReportMetric(float64(res.ExtraElems), "extra-elems")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Paper §III-D — single-disk-failure recovery reads: the ~25% saving of the
// hybrid plan versus the conventional single-kind plan.

func BenchmarkSingleFailureRecovery(b *testing.B) {
	for _, e := range codes.Comparison() {
		for _, p := range []int{7, 13} {
			c, err := e.New(p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d", e.ID, p), func(b *testing.B) {
				var saving, reads float64
				for i := 0; i < b.N; i++ {
					var err error
					saving, reads, _, err = recovery.AverageSaving(c)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(saving*100, "%-saved")
				b.ReportMetric(reads, "reads/stripe")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: raw encode/decode throughput per code, the
// Reed-Solomon baseline, and the small-write path.

const kernelElem = 4096

func BenchmarkEncode(b *testing.B) {
	for _, e := range codes.All() {
		c, err := e.New(13)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.ID+"/p=13", func(b *testing.B) {
			s := c.NewStripe(kernelElem)
			s.Fill(1)
			b.SetBytes(int64(c.DataElems() * kernelElem))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Encode(s)
			}
		})
	}
}

func BenchmarkReconstructDouble(b *testing.B) {
	for _, e := range codes.All() {
		c, err := e.New(13)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.ID+"/p=13", func(b *testing.B) {
			s := c.NewStripe(kernelElem)
			s.Fill(1)
			c.Encode(s)
			b.SetBytes(int64(2 * c.Rows() * kernelElem))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reconstruct(s, 1, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReedSolomonEncode(b *testing.B) {
	// RS with the same data-disk count as a p=13 D-Code (11 data shards).
	enc, err := rs.NewRAID6(11)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 13)
	for i := range shards {
		shards[i] = make([]byte, kernelElem)
		for j := range shards[i] {
			shards[i][j] = byte(i + j)
		}
	}
	b.SetBytes(int64(11 * kernelElem))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCauchyRSEncode contrasts the XOR-only bit-matrix encoding with
// BenchmarkReedSolomonEncode's table-multiply path — the classic Cauchy-RS
// result that pure XOR beats GF table lookups.
func BenchmarkCauchyRSEncode(b *testing.B) {
	enc, err := crs.NewRAID6(11)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 13)
	for i := range shards {
		shards[i] = make([]byte, kernelElem)
		for j := range shards[i] {
			shards[i][j] = byte(i + j)
		}
	}
	b.SetBytes(int64(11 * kernelElem))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateData(b *testing.B) {
	for _, id := range []string{"dcode", "rdp"} {
		c := codes.MustNew(id, 13)
		b.Run(id+"/p=13", func(b *testing.B) {
			s := c.NewStripe(kernelElem)
			s.Fill(1)
			c.Encode(s)
			co := c.DataCoord(0)
			val := make([]byte, kernelElem)
			b.SetBytes(kernelElem)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				val[0] = byte(i)
				c.UpdateData(s, co.Row, co.Col, val)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §9).

// AblationDegradedPlanKinds compares D-Code's degraded fetch cost when the
// planner may use both parity kinds versus horizontal-only versus
// deployment-only — isolating where the degraded-read win comes from.
func BenchmarkAblationDegradedPlanKinds(b *testing.B) {
	c := codes.MustNew("dcode", 13)
	for _, tc := range []struct {
		name  string
		kinds []erasure.GroupKind
	}{
		{"both", nil},
		{"horizontal-only", []erasure.GroupKind{erasure.KindHorizontal}},
		{"deployment-only", []erasure.GroupKind{erasure.KindDeployment}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var extra int64
			for i := 0; i < b.N; i++ {
				extra = 0
				for s := 0; s < c.DataElems(); s += 7 {
					wanted := make([]erasure.Coord, 0, 10)
					for j := 0; j < 10; j++ {
						wanted = append(wanted, c.DataCoord((s+j)%c.DataElems()))
					}
					_, ex, err := readperf.PlanStripeFetchKinds(c, wanted[1].Col, wanted, tc.kinds)
					if err != nil {
						b.Fatal(err)
					}
					extra += int64(ex)
				}
			}
			b.ReportMetric(float64(extra), "extra-reads")
		})
	}
}

// AblationDecodePath compares the peeling decoder (D-Code) against a code
// whose erasures regularly need the GF(2) Gaussian fallback (EVENODD).
func BenchmarkAblationDecodePath(b *testing.B) {
	for _, tc := range []struct{ name, id string }{
		{"peeling/dcode", "dcode"},
		{"gaussian/evenodd", "evenodd"},
	} {
		c := codes.MustNew(tc.id, 13)
		b.Run(tc.name, func(b *testing.B) {
			s := c.NewStripe(kernelElem)
			s.Fill(3)
			c.Encode(s)
			b.SetBytes(int64(2 * c.Rows() * kernelElem))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reconstruct(s, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionRotationHotspot quantifies the paper's §I argument:
// RAID-5-style stripe rotation cannot balance per-stripe hotspots, while
// D-Code balances within each stripe.
func BenchmarkExtensionRotationHotspot(b *testing.B) {
	rdpCode := codes.MustNew("rdp", 7)
	dcodeC := codes.MustNew("dcode", 7)
	gen := func(elems int) []workload.Op {
		ops, err := workload.Generate(workload.Config{
			DataElems:           40 * elems,
			Seed:                benchSeed,
			HotspotOpFraction:   0.95,
			HotspotAddrFraction: 0.025,
		}, workload.Mixed)
		if err != nil {
			b.Fatal(err)
		}
		return ops
	}
	b.Run("rdp-rotated", func(b *testing.B) {
		ops := gen(rdpCode.DataElems())
		var lf float64
		for i := 0; i < b.N; i++ {
			lf = ioload.SimulateRotated(rdpCode, ops).LF()
		}
		b.ReportMetric(lf, "LF")
	})
	b.Run("dcode", func(b *testing.B) {
		ops := gen(dcodeC.DataElems())
		var lf float64
		for i := 0; i < b.N; i++ {
			lf = ioload.Simulate(dcodeC, ops).LF()
		}
		b.ReportMetric(lf, "LF")
	})
}

// ---------------------------------------------------------------------------
// Array data path: stripe pipelining and per-device fan-out at Concurrency 1
// (fully serial) versus GOMAXPROCS. On a single-core machine the two coincide;
// on multi-core the parallel rows show the speedup from concurrent per-device
// I/O. The serial rows double as allocation checks for the pooled data path.

// benchConcs returns the fan-out bounds worth benchmarking: always 1, plus
// GOMAXPROCS when it differs.
func benchConcs() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

func newBenchArray(b *testing.B, conc int) (*dcode.Array, []*dcode.MemDevice) {
	b.Helper()
	code, err := dcode.New(7)
	if err != nil {
		b.Fatal(err)
	}
	const stripes, elem = 32, 4096
	mems := make([]*dcode.MemDevice, code.Cols())
	devs := make([]dcode.Device, code.Cols())
	for i := range devs {
		mems[i] = dcode.NewMemDevice(stripes * int64(code.Rows()) * elem)
		devs[i] = mems[i]
	}
	a, err := dcode.NewArray(code, devs, elem, stripes, dcode.WithConcurrency(conc))
	if err != nil {
		b.Fatal(err)
	}
	return a, mems
}

func BenchmarkArrayWriteAt(b *testing.B) {
	for _, conc := range benchConcs() {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			a, _ := newBenchArray(b, conc)
			buf := make([]byte, a.Size())
			for i := range buf {
				buf[i] = byte(i)
			}
			b.SetBytes(a.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.WriteAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkArrayReadAt(b *testing.B) {
	for _, conc := range benchConcs() {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			a, _ := newBenchArray(b, conc)
			buf := make([]byte, a.Size())
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			if _, err := a.WriteAt(buf, 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(a.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ReadAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkArrayRebuild(b *testing.B) {
	for _, conc := range benchConcs() {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			a, mems := newBenchArray(b, conc)
			buf := make([]byte, a.Size())
			for i := range buf {
				buf[i] = byte(i * 17)
			}
			if _, err := a.WriteAt(buf, 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(mems[2].Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := a.FailDisk(2); err != nil {
					b.Fatal(err)
				}
				mems[2].Replace()
				b.StartTimer()
				if err := a.Rebuild(2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The Delayed variants put a fixed per-call service time under each device —
// the crude disk model from internal/blockdev — so the benchmark measures
// what the array's scheduling actually buys on hardware with latency:
// overlapped device waits across columns and stripes, and coalesced runs
// paying the service time once. Sleeps overlap regardless of core count, so
// the pipelining speedup shows even on a single-CPU machine (where the pure
// in-memory variants above measure only goroutine overhead).

const benchDelay = 50 * time.Microsecond

// benchPerByte is the transfer-cost term of the delayed model: 1ns/byte
// (~1 GB/s streaming) next to the 50µs positioning cost, so a coalesced run
// pays for the extra bytes it moves instead of riding free on the per-call
// term. BENCH_PERBYTE overrides it ("0s" reproduces the flat per-call model
// that baselines recorded before the two-term model existed).
func benchPerByte() time.Duration {
	if s := os.Getenv("BENCH_PERBYTE"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d >= 0 {
			return d
		}
	}
	return time.Nanosecond
}

func newDelayedBenchArray(b *testing.B, conc int) (*dcode.Array, []*blockdev.MemDevice) {
	b.Helper()
	code, err := dcode.New(7)
	if err != nil {
		b.Fatal(err)
	}
	const stripes, elem = 16, 4096
	mems := make([]*blockdev.MemDevice, code.Cols())
	devs := make([]dcode.Device, code.Cols())
	for i := range devs {
		mems[i] = dcode.NewMemDevice(stripes * int64(code.Rows()) * elem)
		devs[i] = &blockdev.Delayed{Device: mems[i], Delay: benchDelay, PerByte: benchPerByte()}
	}
	a, err := dcode.NewArray(code, devs, elem, stripes, dcode.WithConcurrency(conc))
	if err != nil {
		b.Fatal(err)
	}
	return a, mems
}

// delayedConcs always contrasts serial with a real fan-out: latency overlap
// does not need cores, so a fixed bound of 8 is meaningful everywhere.
func delayedConcs() []int { return []int{1, 8} }

func BenchmarkArrayWriteAtDelayed(b *testing.B) {
	for _, conc := range delayedConcs() {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			a, _ := newDelayedBenchArray(b, conc)
			buf := make([]byte, a.Size())
			for i := range buf {
				buf[i] = byte(i)
			}
			b.SetBytes(a.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.WriteAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArraySmallWritesDelayed streams a stripe's worth of sequential
// 256B writes through one stripe at a time on delayed devices: every write
// pays its own read-modify-write against the modeled positioning cost.
func BenchmarkArraySmallWritesDelayed(b *testing.B) {
	const chunk = 256
	code, err := dcode.New(7)
	if err != nil {
		b.Fatal(err)
	}
	const stripes, elem = 16, 4096
	devs := make([]dcode.Device, code.Cols())
	for i := range devs {
		mem := dcode.NewMemDevice(stripes * int64(code.Rows()) * elem)
		devs[i] = &blockdev.Delayed{Device: mem, Delay: benchDelay, PerByte: benchPerByte()}
	}
	a, err := dcode.NewArray(code, devs, elem, stripes, dcode.WithConcurrency(8))
	if err != nil {
		b.Fatal(err)
	}
	sdb := int64(code.DataElems()) * elem
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(sdb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (int64(i) % stripes) * sdb
		for off := int64(0); off < sdb; off += chunk {
			if _, err := a.WriteAt(buf, base+off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkArrayRebuildDelayed(b *testing.B) {
	for _, conc := range delayedConcs() {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			a, mems := newDelayedBenchArray(b, conc)
			buf := make([]byte, a.Size())
			for i := range buf {
				buf[i] = byte(i * 17)
			}
			if _, err := a.WriteAt(buf, 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(mems[2].Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := a.FailDisk(2); err != nil {
					b.Fatal(err)
				}
				mems[2].Replace()
				b.StartTimer()
				if err := a.Rebuild(2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCauchyRSScheduled measures the XOR-schedule optimization
// (difference-based packet reuse) against the plain bit-matrix encode.
func BenchmarkCauchyRSScheduled(b *testing.B) {
	enc, err := crs.NewRAID6(11)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 13)
	for i := range shards {
		shards[i] = make([]byte, kernelElem)
		for j := range shards[i] {
			shards[i][j] = byte(i + j)
		}
	}
	b.SetBytes(int64(11 * kernelElem))
	b.ReportMetric(float64(enc.ScheduledXORs())/float64(enc.XORsPerStripe()), "xor-ratio")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeScheduled(shards); err != nil {
			b.Fatal(err)
		}
	}
}
