package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

func sample(timing bool) File {
	f := File{
		Schema: SchemaVersion,
		Rev:    "test",
		Timing: timing,
		Config: Config{P: 5, ElemSize: 512, Stripes: 16, Ops: 100, MaxLen: 20, MaxTimes: 2, Seed: 42},
		Results: []Result{
			{
				Code: "dcode", Workload: "Read-Only",
				Executions: 1000, BytesMoved: 1 << 20,
				PerDisk: []int64{100, 100, 100, 100, 100},
				LoadCV:  0.05, LoadLF: 1.2, EncodeXOROps: 500,
				NsPerOp: 10000, MBPerSec: 200, ReadP99Ns: 50000, WriteP99Ns: 60000,
			},
			{
				Code: "rdp", Workload: "Read-Only",
				Executions: 1000, BytesMoved: 1 << 20,
				PerDisk: []int64{120, 120, 120, 0, 0},
				LoadCV:  0.8, LoadLF: -1, EncodeXOROps: 600,
				NsPerOp: 12000, MBPerSec: 180, ReadP99Ns: 52000, WriteP99Ns: 61000,
			},
		},
	}
	if !timing {
		f.StripTiming()
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sample(true)
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != want.Rev || len(got.Results) != len(want.Results) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Results[0].LoadCV != want.Results[0].LoadCV {
		t.Fatalf("load_cv changed: %v", got.Results[0].LoadCV)
	}
}

func TestReadFileRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	f := sample(true)
	f.Schema = SchemaVersion + 1
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// Identical files must compare clean — the acceptance criterion's zero case.
func TestCompareIdenticalClean(t *testing.T) {
	f := sample(true)
	if regs := Compare(f, f, 0.10); len(regs) != 0 {
		t.Fatalf("identical files flagged: %v", regs)
	}
}

// A synthetic 15%-slower current file must fail a 10% gate — the acceptance
// criterion's non-zero case.
func TestCompareFlagsFifteenPercentSlower(t *testing.T) {
	base := sample(true)
	slow := sample(true)
	for i := range slow.Results {
		slow.Results[i].NsPerOp *= 1.15
		slow.Results[i].MBPerSec /= 1.15
	}
	regs := Compare(base, slow, 0.10)
	if len(regs) == 0 {
		t.Fatal("15% slowdown not flagged at a 10% threshold")
	}
	foundNs := false
	for _, r := range regs {
		if r.Metric == "ns_per_op" {
			foundNs = true
			if r.Ratio < 1.14 || r.Ratio > 1.16 {
				t.Fatalf("ns_per_op ratio %v, want ≈1.15", r.Ratio)
			}
		}
	}
	if !foundNs {
		t.Fatalf("ns_per_op missing from %v", regs)
	}
}

func TestCompareWithinThresholdClean(t *testing.T) {
	base := sample(true)
	ok := sample(true)
	for i := range ok.Results {
		ok.Results[i].NsPerOp *= 1.05
	}
	if regs := Compare(base, ok, 0.10); len(regs) != 0 {
		t.Fatalf("5%% drift flagged at a 10%% threshold: %v", regs)
	}
}

// Timing comparison must be skipped when either side lacks timing — that is
// what lets a cross-machine baseline live in git.
func TestCompareSkipsTimingAgainstStrippedBaseline(t *testing.T) {
	base := sample(false)
	slow := sample(true)
	for i := range slow.Results {
		slow.Results[i].NsPerOp *= 3
	}
	if regs := Compare(base, slow, 0.10); len(regs) != 0 {
		t.Fatalf("timing compared against a non-timing baseline: %v", regs)
	}
}

func TestCompareFlagsLoadCVRegression(t *testing.T) {
	base := sample(false)
	cur := sample(false)
	cur.Results[0].LoadCV = base.Results[0].LoadCV*1.5 + 0.02
	regs := Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Metric != "load_cv" {
		t.Fatalf("want one load_cv regression, got %v", regs)
	}
}

func TestCompareSkipsCVOnDifferentWorkloads(t *testing.T) {
	base := sample(false)
	cur := sample(false)
	cur.Config.Seed++ // different op stream: CVs not comparable
	cur.Results[0].LoadCV = 1.0
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Fatalf("CV compared across different workload configs: %v", regs)
	}
}

func TestCompareFlagsMissingCell(t *testing.T) {
	base := sample(false)
	cur := sample(false)
	cur.Results = cur.Results[:1]
	regs := Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Metric != "coverage" {
		t.Fatalf("want one coverage regression, got %v", regs)
	}
}
