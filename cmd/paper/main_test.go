package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcode/internal/codes"
	"dcode/internal/erasure"
)

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

func paper(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// The committed REPORT.md is the output of paper with no arguments.
func TestReport(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	code, got, errs := paper()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs from REPORT.md:\n got %q\nwant %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("report has %d lines, REPORT.md %d", len(g), len(w))
	}
}

// Each section prints the numbers the paper's figures plot.
func TestSections(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(trace, []byte("R,0,5,1\nW,3,4,2\nR,10,20,3\nW,0,1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"verify", []string{"verify", "-p", "5, 7", "-codes", "dcode,xcode"},
			[]string{"| code | p=5 | p=7 |", "| D-Code | ok | ok |\n| X-Code | ok | ok |\n"}},
		{"features", []string{"features", "-p", "7"},
			[]string{"p = 7", "| D-Code | 7 | 0.714 | 1.600 | 4.00 | 2.00 | 2 | 0 | 16.1% |"}},
		{"ioload", []string{"ioload", "-p", "5,7", "-trace", trace},
			[]string{"trace " + trace + " workload", "| D-Code | 1.32 | 1.69 | 111 | 111 |"}},
		{"readperf", []string{"readperf", "-p", "5", "-latency"},
			[]string{"| X-Code | 339.9 (67.99) [40/40/40] |", "| D-Code | 395.5 (79.09) [34/34/40] |"}},
		{"recovery", []string{"recovery", "-p", "5,13"},
			[]string{"| RDP | 16.7% (13.3 of 16.0) | 21.4% (113.1 of 144.0) |"}},
		{"layout", []string{"layout", "-labels", "deployment"},
			[]string{"r6    [G] [D] [A] [E] [B] [F] [C] \n"}},
		{"layout_write", []string{"layout", "-code", "xcode", "-write", "16,5"},
			[]string{"r5    o   o   o   .   .   o   o   \n", "I/O cost: 10 data accesses + 20 parity accesses = 30\n"}},
		{"layout_read", []string{"layout", "-code", "rdp", "-read", "8,6", "-degraded", "1"},
			[]string{"— 5 extra elements:", "r2    *   *X  o   o   o   o   o   .   \n"}},
		{"chain", []string{"chain"},
			[]string{"recovery chain (14 elements, 56 XORs, 4.0 per element):\nE(1,3) -> E(5,2) -> ", "verified: all 14 lost elements"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errs := paper(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errs)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// A failed write to stdout fails the run, in every section.
func TestWriteErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ops", "20", "-dops", "5"},
		{"verify", "-p", "5", "-codes", "dcode"},
		{"features", "-p", "5"},
		{"ioload", "-p", "5", "-ops", "20"},
		{"readperf", "-p", "5", "-ops", "20", "-dops", "5"},
		{"recovery", "-p", "5"},
		{"layout"},
		{"chain"},
	} {
		name := args[0]
		if strings.HasPrefix(name, "-") {
			name = "report"
		}
		t.Run(name, func(t *testing.T) {
			var errs bytes.Buffer
			if code := run(args, failWriter{}, &errs); code != 1 || !strings.Contains(errs.String(), "sink failed") {
				t.Fatalf("exit %d, stderr %q; want 1 and the write error", code, errs.String())
			}
		})
	}
}

// A bad command line prints a message and exits 2, before any output.
func TestBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"layout", "-write", "-3,2"},
		{"layout", "-read", "-3,2"},
		{"layout", "-write", "3,0"},
		{"layout", "-write", "3"},
		{"layout", "-read", "8,6", "-degraded", "-2"},
		{"layout", "-read", "8,6", "-degraded", "7"},
		{"layout", "-degraded", "1"},
		{"layout", "-labels", "diagonal"},
		{"layout", "-p", "5,7"},
		{"layout", "-code", "raid5"},
		{"chain", "-fail", "9"},
		{"chain", "-fail", "2,2"},
		{"verify", "-codes", "raid5"},
		{"features", "-p", "x"},
		{"ioload", "-ops", "-1"},
		{"readperf", "-dops", "0"},
		{"bogus"},
		{"verify", "extra"},
		{"-p", "5"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, out, errs := paper(args...)
			if code != 2 || out != "" || errs == "" {
				t.Fatalf("exit %d, stdout %q, stderr %q; want 2, nothing and a message", code, out, errs)
			}
		})
	}
}

// An empty trace fails the run instead of falling back to the synthetic
// workloads.
func TestEmptyTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(trace, []byte("# no operations\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errs := paper("ioload", "-p", "5", "-trace", trace); code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 and nothing", code, out, errs)
	}
}

// A code that fails the MDS check is marked FAIL, the rest of the report
// still prints, and the run fails.
func TestMDSFailure(t *testing.T) {
	raid5 := codes.Entry{ID: "raid5", Name: "RAID-5", New: func(p int) (*erasure.Code, error) {
		return erasure.New("RAID-5", p, 1, 3, []erasure.Group{
			{Parity: erasure.Coord{Row: 0, Col: 2}, Members: []erasure.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}}},
		})
	}}
	o := options{seed: 42, ops: 20, dops: 5, codes: codeList{raid5}}
	var out bytes.Buffer
	err := writeReport(&out, &o)
	if !errors.Is(err, errNotMDS) || !strings.Contains(err.Error(), "raid5 p=5") {
		t.Fatalf("writeReport = %v, want the MDS failure of raid5", err)
	}
	for _, w := range []string{"| RAID-5 | FAIL | FAIL | FAIL | FAIL |", "## Extension"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("report lacks %q", w)
		}
	}
}
