package main

import (
	"encoding/json"
	"fmt"
	"os"

	"dcode/internal/workload"
)

// geometry fixes the array and the amount of work of a run. Later issues
// compare against numbers taken at fullGeometry; quickGeometry exists so the
// smoke test can drive every code path in seconds.
type geometry struct {
	n              int   // D-Code prime = columns
	elem           int   // element size in bytes
	stripes        int64 // stripes per column
	countedOps     int   // stream ops in the counted pass (rebuild: one per column)
	tracedOps      int   // stream ops in the traced pass
	tracedRebuilds int   // Rebuild calls in the traced pass
	setupReps      int   // set-ups per run; setup_s is their median
}

var (
	// 35 data elements per stripe × 4 KiB × 1024 stripes = 140 MiB of user
	// data on 196 MiB of columns: far beyond L2, and the element cache is off
	// by default, so there is no cache-fit case to separate yet.
	fullGeometry = geometry{n: 7, elem: 4096, stripes: 1024, countedOps: 20000,
		tracedOps: 20000, tracedRebuilds: 70, setupReps: 5}
	quickGeometry = geometry{n: 5, elem: 512, stripes: 16, countedOps: 2000,
		tracedOps: 2000, tracedRebuilds: 10, setupReps: 2}
)

const (
	// The paper's ⟨S,L,T⟩ ranges as ISSUE 12 fixes them.
	maxLen   = 20
	maxTimes = 4
	// fullStripeRun is the length of one write_fullstripe op in stripes.
	fullStripeRun = 4
	// flushEvery is how many ops a wire caller issues between FLUSHes.
	flushEvery = 64
	// failedColumn is the column read_degraded runs without.
	failedColumn = 2
	// windows per timed pass. Many short ones: on a shared box the cores
	// slow by a third for milliseconds to a minute at a time, and the
	// reported figures are taken from the windows that escaped that (see
	// quiet in stats.go).
	windows = 160
)

type shape int

const (
	shapeStream     shape = iota // ⟨S,L,T⟩ ops from workload.Generate
	shapeFullStripe              // sequential stripe-aligned writes
	shapeRebuild                 // fail, replace, rebuild each column in turn
)

// workloadSpec is one named workload. The names are fixed: later issues cite
// them. Each why is repeated in BENCHMARK.json and README.md.
type workloadSpec struct {
	name     string
	shape    shape
	profile  workload.Profile
	degraded bool // FailDisk(failedColumn) during set-up
	net      bool // two callers through blockdev.Remote to a served array
}

var workloadSpecs = []workloadSpec{
	{name: "read_healthy", profile: workload.ReadOnly},
	{name: "write_mixed", profile: workload.Mixed},
	{name: "write_fullstripe", shape: shapeFullStripe},
	{name: "read_degraded", profile: workload.ReadOnly, degraded: true},
	{name: "rebuild", shape: shapeRebuild},
	{name: "net_mixed", profile: workload.Mixed, net: true},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// callers is the closed-loop client count: block clients wait for their
// reply. One caller in process, two connections on the wire; all of them, and
// the server, share the run's one scheduler thread (see -procs).
func (w workloadSpec) callers() int {
	if w.net {
		return 2
	}
	return 1
}

// benchSpec is BENCHMARK.json, the contract the driver checks and the source
// of the bounds -compare applies.
type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
