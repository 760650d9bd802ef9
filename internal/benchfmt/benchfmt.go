// Package benchfmt defines the machine-readable benchmark artifact of
// cmd/bench (`BENCH_<rev>.json`) and the regression comparator CI runs over
// two such files. The format separates deterministic metrics (per-disk load
// counts and their coefficient of variation, XOR volume — identical for a
// given seed on every machine) from timing metrics (ns/op, MB/s, p99 — only
// comparable between runs on the same machine), so a baseline committed from
// one machine can still gate load-balance regressions in CI: files written
// with Timing=false carry no timing numbers, and Compare only checks timing
// when both sides have it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion identifies the file layout; bump on incompatible change.
const SchemaVersion = 1

// File is one benchmark artifact: the full code × workload matrix of one run.
type File struct {
	Schema    int    `json:"schema"`
	Rev       string `json:"rev"`
	GoVersion string `json:"go_version,omitempty"`
	// Timing records whether the run's timing fields are meaningful.
	// Committed baselines set it false so cross-machine comparisons only
	// gate on deterministic metrics.
	Timing  bool     `json:"timing"`
	Config  Config   `json:"config"`
	Results []Result `json:"results"`
}

// Config records the matrix parameters so two files can be checked for
// comparability.
type Config struct {
	P        int   `json:"p"`
	ElemSize int   `json:"elem_size"`
	Stripes  int64 `json:"stripes"`
	Ops      int   `json:"ops"`
	MaxLen   int   `json:"max_len"`
	MaxTimes int   `json:"max_times"`
	Seed     int64 `json:"seed"`
	Quick    bool  `json:"quick"`
	// Concurrency is the array's fan-out bound (0 = the tool's default,
	// serial). It is part of the config identity: concurrent runs interleave
	// device ops differently, so only like-for-like runs gate load metrics.
	Concurrency int `json:"concurrency,omitempty"`
	// DelayNs and PerByteNs are the blockdev.Delayed service-time model
	// applied to every device (0 = raw MemDevice). Timing under a delay model
	// measures scheduling — coalescing, vectoring, batching — rather than
	// memcpy speed, so delayed runs only compare against delayed baselines.
	DelayNs   int64 `json:"delay_ns,omitempty"`
	PerByteNs int64 `json:"per_byte_ns,omitempty"`
	// MaxInflight bounds concurrent ops per Delayed device (0 = unlimited).
	// It makes queue-depth effects visible on the in-memory service model and
	// is config identity for the same reason as DelayNs.
	MaxInflight int `json:"max_inflight,omitempty"`
}

// Result is one cell of the matrix: one code under one workload profile.
type Result struct {
	Code     string `json:"code"`
	Workload string `json:"workload"`

	// Deterministic metrics.
	Executions   int64   `json:"executions"`  // operation executions (T expansions)
	BytesMoved   int64   `json:"bytes_moved"` // logical bytes read+written
	PerDisk      []int64 `json:"per_disk"`    // device ops per column
	LoadCV       float64 `json:"load_cv"`     // coefficient of variation of PerDisk
	LoadLF       float64 `json:"load_lf"`     // Lmax/Lmin (paper Eq. 8), -1 for +Inf
	EncodeXOROps int64   `json:"encode_xor_ops"`
	DecodeXOROps int64   `json:"decode_xor_ops"`

	// Network load-test fields, populated only by cmd/loadgen artifacts
	// (omitted from cmd/bench artifacts, so old baselines stay
	// byte-identical). Clients is the concurrent-client count of the run and
	// part of the cell's identity for human readers; Errors counts failed or
	// corrupt operations and gates unconditionally — see Compare.
	Clients int   `json:"clients,omitempty"`
	Errors  int64 `json:"errors,omitempty"`

	// Timing metrics; zero and omitted when the file has Timing=false.
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	OpsPerSec   float64 `json:"ops_per_s,omitempty"`
	ReadP50Ns   int64   `json:"read_p50_ns,omitempty"`
	ReadP95Ns   int64   `json:"read_p95_ns,omitempty"`
	ReadP99Ns   int64   `json:"read_p99_ns,omitempty"`
	ReadP999Ns  int64   `json:"read_p999_ns,omitempty"`
	WriteP50Ns  int64   `json:"write_p50_ns,omitempty"`
	WriteP95Ns  int64   `json:"write_p95_ns,omitempty"`
	WriteP99Ns  int64   `json:"write_p99_ns,omitempty"`
	WriteP999Ns int64   `json:"write_p999_ns,omitempty"`
}

// StripTiming clears the timing fields and marks the file non-timing; used
// when committing a baseline.
func (f *File) StripTiming() {
	f.Timing = false
	for i := range f.Results {
		f.Results[i].NsPerOp = 0
		f.Results[i].MBPerSec = 0
		f.Results[i].OpsPerSec = 0
		f.Results[i].ReadP50Ns = 0
		f.Results[i].ReadP95Ns = 0
		f.Results[i].ReadP99Ns = 0
		f.Results[i].ReadP999Ns = 0
		f.Results[i].WriteP50Ns = 0
		f.Results[i].WriteP95Ns = 0
		f.Results[i].WriteP99Ns = 0
		f.Results[i].WriteP999Ns = 0
	}
}

// WriteFile marshals f to path, indented for diffability.
func WriteFile(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads and validates a benchmark artifact.
func ReadFile(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if f.Schema != SchemaVersion {
		return File{}, fmt.Errorf("benchfmt: %s: schema %d, this tool reads %d", path, f.Schema, SchemaVersion)
	}
	if len(f.Results) == 0 {
		return File{}, fmt.Errorf("benchfmt: %s: no results", path)
	}
	return f, nil
}

// Regression is one comparator finding.
type Regression struct {
	Code     string
	Workload string
	Metric   string
	Base     float64
	Current  float64
	// Ratio is Current/Base for higher-is-worse metrics and Base/Current
	// for lower-is-worse ones, so >1 always means "worse".
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %s regressed %.1f%% (base %.4g, current %.4g)",
		r.Code, r.Workload, r.Metric, (r.Ratio-1)*100, r.Base, r.Current)
}

// Compare checks current against base and returns every regression beyond
// threshold (0.10 = fail when a metric is more than 10% worse).
//
// Rules:
//   - results are matched by (code, workload); a pair present in base but
//     missing from current is reported as a "coverage" regression;
//   - load_cv is compared whenever both sides ran an identical config
//     (higher is worse; an absolute slack of 0.01 avoids flagging noise
//     around perfectly balanced codes);
//   - ns/op, p99 and MB/s are compared only when BOTH files carry timing
//     (higher ns/op and p99 are worse, lower MB/s is worse).
func Compare(base, current File, threshold float64) []Regression {
	cur := make(map[[2]string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[[2]string{r.Code, r.Workload}] = r
	}
	timing := base.Timing && current.Timing
	// Per-disk loads are only deterministic for an identical op stream, and
	// any config field (geometry included) changes that stream.
	sameWork := base.Config == current.Config

	var regs []Regression
	worse := func(b Result, metric string, baseV, curV float64, lowerIsBetter bool) {
		if baseV <= 0 || curV <= 0 {
			return
		}
		ratio := curV / baseV
		if lowerIsBetter {
			ratio = baseV / curV
		}
		if ratio > 1+threshold {
			regs = append(regs, Regression{
				Code: b.Code, Workload: b.Workload, Metric: metric,
				Base: baseV, Current: curV, Ratio: ratio,
			})
		}
	}

	for _, b := range base.Results {
		c, ok := cur[[2]string{b.Code, b.Workload}]
		if !ok {
			regs = append(regs, Regression{
				Code: b.Code, Workload: b.Workload, Metric: "coverage",
				Base: 1, Current: 0, Ratio: 2,
			})
			continue
		}
		// Errors gate unconditionally — independent of machine speed, timing
		// comparability and config identity, a run that produced op or data
		// errors where the baseline had fewer is broken, not slow. (Both
		// sides are zero for cmd/bench artifacts, which never set the field.)
		if c.Errors > b.Errors {
			regs = append(regs, Regression{
				Code: b.Code, Workload: b.Workload, Metric: "errors",
				Base: float64(b.Errors), Current: float64(c.Errors), Ratio: 2,
			})
		}
		if sameWork {
			// CV is dimensionless and deterministic; gate with a small
			// absolute slack on top of the relative threshold.
			if c.LoadCV > b.LoadCV*(1+threshold)+0.01 {
				ratio := 2.0
				if b.LoadCV > 0 {
					ratio = c.LoadCV / b.LoadCV
				}
				regs = append(regs, Regression{
					Code: b.Code, Workload: b.Workload, Metric: "load_cv",
					Base: b.LoadCV, Current: c.LoadCV, Ratio: ratio,
				})
			}
		}
		if timing {
			worse(b, "ns_per_op", b.NsPerOp, c.NsPerOp, false)
			worse(b, "read_p99_ns", float64(b.ReadP99Ns), float64(c.ReadP99Ns), false)
			worse(b, "write_p99_ns", float64(b.WriteP99Ns), float64(c.WriteP99Ns), false)
			worse(b, "read_p999_ns", float64(b.ReadP999Ns), float64(c.ReadP999Ns), false)
			worse(b, "write_p999_ns", float64(b.WriteP999Ns), float64(c.WriteP999Ns), false)
			worse(b, "mb_per_s", b.MBPerSec, c.MBPerSec, true)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs
}
