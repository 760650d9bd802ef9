package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/ioload"
	"dcode/internal/readperf"
	"dcode/internal/recovery"
	"dcode/internal/workload"
)

// errNotMDS marks a code that failed the MDS check. The report still prints
// its remaining sections before it exits 1.
var errNotMDS = errors.New("MDS check failed")

// mdsElem is the element size, in bytes, of the stripes the MDS check
// erases and rebuilds.
const mdsElem = 8

// writeReport renders every report section in turn, each at its command's
// default primes.
func writeReport(b *bytes.Buffer, o *options) error {
	fmt.Fprintf(b, "# D-Code reproduction report\n\nseed %d, %d ops per workload, %d ops per degraded failure case.\n",
		o.seed, o.ops, o.dops)
	var notMDS error
	for _, s := range reportSections {
		o.primes = commands[s.name].primes
		err := s.run(b, o)
		if errors.Is(err, errNotMDS) {
			notMDS = err
			continue
		}
		if err != nil {
			return err
		}
	}
	return notMDS
}

// header starts a Markdown table with the given column titles.
func header(b *bytes.Buffer, cols ...string) {
	fmt.Fprintf(b, "| %s |\n|%s\n", strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
}

// primeCols titles one column per prime: "p=5", or "LF p=5" with prefix "LF ".
func primeCols(prefix string, primes []int) []string {
	cols := make([]string, len(primes))
	for i, p := range primes {
		cols[i] = fmt.Sprintf("%sp=%d", prefix, p)
	}
	return cols
}

// writeMDS checks Theorem 2: every code rebuilds every single and double
// column erasure, at every prime.
func writeMDS(b *bytes.Buffer, o *options) error {
	fmt.Fprintf(b, "\n## MDS verification (Theorem 2)\n\n")
	header(b, append([]string{"code"}, primeCols("", o.primes)...)...)
	var failed []string
	for _, e := range o.codes {
		fmt.Fprintf(b, "| %s |", e.Name)
		for _, p := range o.primes {
			c, err := e.New(p)
			if err != nil {
				b.WriteString(" n/a |")
				continue
			}
			if err := erasure.VerifyMDS(c, mdsElem); err != nil {
				b.WriteString(" FAIL |")
				failed = append(failed, fmt.Sprintf("%s p=%d: %v", e.ID, p, err))
				continue
			}
			b.WriteString(" ok |")
		}
		b.WriteString("\n")
	}
	if failed != nil {
		return fmt.Errorf("%w: %s", errNotMDS, strings.Join(failed, "; "))
	}
	return nil
}

// writeFeatures prints the §III-D feature table for every code, one table
// per prime.
func writeFeatures(b *bytes.Buffer, o *options) error {
	for _, p := range o.primes {
		fmt.Fprintf(b, "\n## Feature table (§III-D), p = %d\n\n", p)
		header(b, "code", "disks", "storage eff", "encode XOR/data", "decode XOR/lost", "parity upd/write",
			"max upd/write", "stalled pairs", "recovery saving")
		for _, e := range codes.All() {
			c, err := e.New(p)
			if err != nil {
				fmt.Fprintf(b, "| %s | n/a |\n", e.Name)
				continue
			}
			m := c.ComputeMetrics()
			dec, stalled := c.DecodeXORPerLost()
			saving := "-"
			if s, _, _, err := recovery.AverageSaving(c); err == nil {
				saving = fmt.Sprintf("%.1f%%", s*100)
			}
			fmt.Fprintf(b, "| %s | %d | %.3f | %.3f | %.2f | %.2f | %d | %d | %s |\n",
				e.Name, c.Cols(), m.StorageEfficiency, m.EncodeXORPerData, dec, m.UpdateAvg,
				m.UpdateMax, stalled, saving)
		}
	}
	return nil
}

// writeIOLoad prints Figures 4 and 5 side by side: the load balancing
// factor LF and the total I/O cost, per workload, code and prime.
func writeIOLoad(b *bytes.Buffer, o *options) error {
	profiles := workload.Profiles
	var trace []workload.Op
	if o.trace != "" {
		f, err := os.Open(o.trace)
		if err != nil {
			return err
		}
		trace, err = workload.ParseTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", o.trace, err)
		}
		if len(trace) == 0 {
			return fmt.Errorf("%s: trace has no operations", o.trace)
		}
		profiles = []workload.Profile{{Name: "trace " + o.trace}}
	}
	for _, prof := range profiles {
		fmt.Fprintf(b, "\n## Figures 4-5 — %s workload\n\n", prof.Name)
		header(b, append(append([]string{"code"}, primeCols("LF ", o.primes)...), primeCols("cost ", o.primes)...)...)
		for _, e := range codes.Comparison() {
			fmt.Fprintf(b, "| %s |", e.Name)
			var costs []int64
			for _, p := range o.primes {
				c, err := e.New(p)
				if err != nil {
					return err
				}
				ops := trace
				if ops == nil {
					if ops, err = workload.Generate(workload.Config{Ops: o.ops, DataElems: c.DataElems(), Seed: o.seed}, prof); err != nil {
						return err
					}
				}
				res := ioload.Simulate(c, ops)
				if lf := res.LF(); math.IsInf(lf, 1) {
					b.WriteString(" inf |")
				} else {
					fmt.Fprintf(b, " %.2f |", lf)
				}
				costs = append(costs, res.Cost())
			}
			for _, cost := range costs {
				fmt.Fprintf(b, " %d |", cost)
			}
			b.WriteString("\n")
		}
	}
	return nil
}

// writeReadPerf prints Figures 6 and 7: read speed and average per-disk
// speed on the disk timing model, healthy and over every single data-disk
// failure.
func writeReadPerf(b *bytes.Buffer, o *options) error {
	unit := "MB/s, avg per disk"
	if o.latency {
		unit += " [latency p50/p95/p99 ms]"
	}
	for fig, title := range []string{"Figure 6 — normal-mode", "Figure 7 — degraded-mode"} {
		fmt.Fprintf(b, "\n## %s read speed (%s)\n\n", title, unit)
		header(b, append([]string{"code"}, primeCols("", o.primes)...)...)
		for _, e := range codes.Comparison() {
			fmt.Fprintf(b, "| %s |", e.Name)
			for _, p := range o.primes {
				c, err := e.New(p)
				if err != nil {
					return err
				}
				var r readperf.Result
				if fig == 0 {
					r = readperf.Normal(c, readperf.Config{Ops: o.ops, Seed: o.seed})
				} else if r, err = readperf.Degraded(c, readperf.Config{Ops: o.dops, Seed: o.seed}); err != nil {
					return err
				}
				fmt.Fprintf(b, " %.1f (%.2f)", r.SpeedMBps, r.AvgSpeedMBps)
				if o.latency {
					fmt.Fprintf(b, " [%.0f/%.0f/%.0f]", r.LatencyP50MS, r.LatencyP95MS, r.LatencyP99MS)
				}
				b.WriteString(" |")
			}
			b.WriteString("\n")
		}
	}
	return nil
}

// writeRecovery prints the §III-D single-failure recovery saving: reads of
// the hybrid parity choice against the conventional one, averaged over the
// failed columns.
func writeRecovery(b *bytes.Buffer, o *options) error { return recoveryTable(b, o, false) }

// writeRecoveryReads is writeRecovery with the two average read counts
// behind each saving.
func writeRecoveryReads(b *bytes.Buffer, o *options) error { return recoveryTable(b, o, true) }

func recoveryTable(b *bytes.Buffer, o *options, reads bool) error {
	fmt.Fprintf(b, "\n## §III-D — single-failure recovery savings (hybrid vs conventional)\n\n")
	if reads {
		b.WriteString("Each cell: saving (average reads to rebuild one column, hybrid of conventional).\n\n")
	}
	header(b, append([]string{"code"}, primeCols("", o.primes)...)...)
	for _, e := range codes.Comparison() {
		fmt.Fprintf(b, "| %s |", e.Name)
		for _, p := range o.primes {
			c, err := e.New(p)
			if err != nil {
				return err
			}
			s, hybrid, conv, err := recovery.AverageSaving(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, " %.1f%%", s*100)
			if reads {
				fmt.Fprintf(b, " (%.1f of %.1f)", hybrid, conv)
			}
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	return nil
}

// writeExtension prints the §I argument quantified: stripe rotation
// balances uniform load but not a per-stripe hotspot.
func writeExtension(b *bytes.Buffer, o *options) error {
	fmt.Fprintf(b, "\n## Extension — stripe rotation vs per-stripe balance (§I argument)\n\n")
	header(b, "configuration", "uniform LF", "hotspot LF")
	for _, row := range []struct {
		name, id string
		sim      func(*erasure.Code, []workload.Op) ioload.Result
	}{
		{"RDP, rotated stripe mapping", "rdp", ioload.SimulateRotated},
		{"D-Code, identity mapping", "dcode", ioload.Simulate},
	} {
		c := codes.MustNew(row.id, 7)
		fmt.Fprintf(b, "| %s |", row.name)
		for _, hot := range []bool{false, true} {
			cfg := workload.Config{DataElems: 40 * c.DataElems(), Seed: o.seed, Ops: o.ops}
			if hot {
				cfg.HotspotOpFraction = 0.95
				cfg.HotspotAddrFraction = 0.025
			}
			ops, err := workload.Generate(cfg, workload.Mixed)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, " %.2f |", row.sim(c, ops).LF())
		}
		b.WriteString("\n")
	}
	b.WriteString("\nRotation equalizes uniform load but cannot fix per-stripe hotspots;\n")
	b.WriteString("D-Code balances within every stripe and needs no rotation.\n")
	return nil
}
