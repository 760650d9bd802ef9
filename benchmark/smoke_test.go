package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The smoke tests drive every workload, the traced run and -compare at
// quickGeometry. They assert what must hold on any machine — every metric
// BENCHMARK.json names is reported, finite and of the right sign, counts
// repeat exactly, corruption is caught — and nothing about speed.

const quickSeconds = 0.5

func contract(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that res reports exactly the metrics of want, each
// with the contract's unit and a finite value ≥ 0 (percentages, which are
// differences of two timings, may dip below zero).
func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, contract says %q", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, m.Name, got.Value)
		case got.Value < 0 && m.Unit != "%":
			t.Errorf("%s: %s = %v is negative", res.Workload, m.Name, got.Value)
		}
	}
	slices.Sort(names)
	if got := metricNames(res); !slices.Equal(got, names) {
		t.Errorf("%s reports %v, contract names %v", res.Workload, got, names)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failure)
	}
}

func metricNames(r *result) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// The driver gates the workloads BENCHMARK.json names; the program may run
// more (write_fullstripe is measured but not gated, see README.md), never
// fewer, and in the same order.
func TestContractNamesTheWorkloads(t *testing.T) {
	spec := contract(t)
	var have []string
	for _, w := range workloadSpecs {
		have = append(have, w.name)
	}
	at := 0
	for _, w := range spec.Workloads {
		i := slices.Index(have[at:], w.Name)
		if i < 0 {
			t.Fatalf("BENCHMARK.json names %q, which the benchmark does not run in that order: %v", w.Name, have)
		}
		at += i + 1
	}
	if spec.Paths[0] != "benchmark" || strings.Join(spec.Command, " ") != "go run ./benchmark" {
		t.Fatalf("unexpected command %v / paths %v", spec.Command, spec.Paths)
	}
}

func TestEndToEndQuick(t *testing.T) {
	t.Parallel()
	spec := contract(t)
	e := &env{workDir: t.TempDir()}
	for _, w := range workloadSpecs {
		res, err := runEndToEnd(e, quickGeometry, w, 42, quickSeconds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v must be positive", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		line, correct := contractLine([]*result{res})
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &parsed); err != nil || !correct || len(parsed) != 4 {
			t.Errorf("%s: contract line %q: err=%v correct=%v", w.name, line, err, correct)
		}

		// The counts repeat to the last bit on a second array.
		cnt, tl := countedOnly(t, e, w, nil)
		if tl.failed != 0 {
			t.Errorf("%s: %d ops failed on the second array", w.name, tl.failed)
		}
		var failed []int
		if w.degraded {
			failed = []int{failedColumn}
		}
		lf, err := cnt.loadLF(failed)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics["io_cost"].Value; got != cnt.ioCost() {
			t.Errorf("%s: io_cost %v then %v", w.name, got, cnt.ioCost())
		}
		if got := res.Metrics["load_lf"].Value; got != lf {
			t.Errorf("%s: load_lf %v then %v", w.name, got, lf)
		}
	}
}

// countedOnly sets w up once, lets damage at the session, and runs the
// counted pass and the readback.
func countedOnly(t *testing.T, e *env, w workloadSpec, damage func(*session)) (counts, tally) {
	t.Helper()
	g := quickGeometry
	streams, err := buildStreams(g, w, 42, countedOps(g, w), w.callers())
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := setup(e, g, w, 42, streams, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	if damage != nil {
		damage(s)
	}
	cnt, tl := countedPass(s)
	back, _ := readback(s)
	tl.add(back)
	return cnt, tl
}

func TestCorruptionIsAFailedOp(t *testing.T) {
	e := &env{workDir: t.TempDir()}
	w, _ := workloadByName("read_healthy")
	// Byte 700 of column 0 lies in a data element (row 1 of stripe 0), past
	// its stamp: the stamps stay intact, only the noise is damaged.
	_, tl := countedOnly(t, e, w, func(s *session) { s.mems[0].Corrupt(700) })
	if tl.failed == 0 {
		t.Fatalf("one flipped byte on a column went unnoticed over %d ops", tl.attempted)
	}
	_, tl = countedOnly(t, e, w, nil)
	if tl.failed != 0 {
		t.Fatalf("%d ops failed on an undamaged array", tl.failed)
	}
}

func TestTracedQuick(t *testing.T) {
	t.Parallel()
	spec := contract(t)
	e := &env{workDir: t.TempDir()}
	spans := t.TempDir()
	for _, w := range workloadSpecs {
		res, err := runTraced(e, quickGeometry, w, 42, 0.2, spans)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, spec.PerLayer)
		if fi, err := os.Stat(filepath.Join(spans, "spans-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", w.name, err)
		}
		// Bypass predictions: a layer a workload does not use shows no work.
		wire := res.Detail["blockserve.workload_wire_ops"].Value
		switch {
		case w.net && wire == 0:
			t.Errorf("%s crossed no wire", w.name)
		case !w.net && wire != 0:
			t.Errorf("%s: %v blockserve spans in an in-process workload", w.name, wire)
		}
		if w.name == "read_healthy" && res.Metrics["raid.xor_ops_per_op"].Value != 0 {
			t.Errorf("read_healthy executed XORs: %v per op", res.Metrics["raid.xor_ops_per_op"].Value)
		}
		if w.name == "write_fullstripe" && res.Metrics["raid.rmw_write_share"].Value != 0 {
			t.Errorf("write_fullstripe took the RMW path: share %v", res.Metrics["raid.rmw_write_share"].Value)
		}
		if share := res.Detail["bench.accounted_share_of_op_p50"].Value; share < 0.8 || share > 1.2 {
			t.Errorf("%s: layers account for %.2f of the traced op", w.name, share)
		}
	}
}

func TestCompare(t *testing.T) {
	spread := 1.0
	doc := func(p50, spreadPct float64, failed int64) string {
		sp := spreadPct
		d := document{Schema: 1, Seconds: 10, Results: []*result{{
			Workload: "read_healthy", Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{
				"op_p50_us": {Value: p50, Unit: "us", SpreadPct: &sp},
				"io_cost":   {Value: 10.5, Unit: "count"},
			},
		}}}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := doc(10, spread, 0)
	for _, tc := range []struct {
		name      string
		cur       string
		regressed bool
		want      string
	}{
		{"same", doc(10.2, spread, 0), false, verdictOK},
		{"slower", doc(14, spread, 0), true, verdictRegression},
		{"faster", doc(6, spread, 0), false, verdictImproved},
		{"noisy", doc(10.2, 40, 0), false, verdictUnresolved},
		{"failing", doc(10, spread, 3), true, verdictRegression},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, specPath, base, tc.cur)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, want %v with verdict %q:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

func TestStats(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 = %d, want 10", got)
	}
	if got := unionLen([]interval{{5, 9}, {0, 4}, {2, 6}, {20, 21}}); got != 10 {
		t.Errorf("unionLen = %d, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	vs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}
	if hi, lo := quiet(vs, true), quiet(vs, false); hi != 10 || lo != 2 {
		t.Errorf("quiet = %v / %v, want 10 / 2", hi, lo)
	}
}
