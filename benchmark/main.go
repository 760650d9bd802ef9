// Command benchmark is the repository's benchmark: it drives the
// default-configuration D-Code array through six named workloads, times them
// end to end, verifies every byte it reads, and — in a separate traced run —
// attributes the time to layers. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every figure.
//
//	go run ./benchmark [-workload NAME|all] [-seed 42] [-seconds 22] [-trace 0|1]
//	                   [-procs 1] [-quick] [-out FILE] [-trace-out DIR]
//	go run ./benchmark -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is 1 when any op failed or a
// comparison found a regression, 2 on usage and set-up errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// document is what -out writes and -compare reads.
type document struct {
	Schema  int       `json:"schema"`
	Go      string    `json:"go"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Quick   bool      `json:"quick"`
	Trace   int       `json:"trace"`
	Results []*result `json:"results"`
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "seeds workload.Generate and the payload noise")
	seconds := flag.Float64("seconds", 22, "length of the timed pass (warm-up plus the windows)")
	procs := flag.Int("procs", 1, "GOMAXPROCS of the run; 0 leaves the runtime's default")
	traced := flag.Int("trace", 0, "1 runs the traced pass and the layer probes instead of the end-to-end run")
	quick := flag.Bool("quick", false, "small geometry: a smoke run, not a measurement")
	out := flag.String("out", "", "also write the results as a JSON document for -compare")
	traceOut := flag.String("trace-out", "", "with -trace 1, write each workload's spans into this directory")
	compare := flag.Bool("compare", false, "compare two -out documents: -compare A.json B.json")
	specPath := flag.String("spec", "BENCHMARK.json", "the contract -compare takes its bounds from")
	workDir := flag.String("workdir", ".bench_build", "where the column files of net workloads go")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two documents")
		}
		regressed, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || *procs < 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	g := fullGeometry
	if *quick {
		g = quickGeometry
	}
	if err := checkGeometry(g); err != nil {
		fatalf("%v", err)
	}
	specs := workloadSpecs
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatalf("unknown workload %q", *workloadName)
		}
		specs = []workloadSpec{w}
	}

	// One scheduler thread for callers, array and block server alike: on
	// the sandbox's two shared vCPUs a second thread makes every small op
	// wait for a wake-up across vCPUs, whose cost is the hypervisor's and
	// moves by a third from minute to minute (README.md, "Why one core per
	// process").
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	e := &env{workDir: *workDir}
	doc := document{Schema: 1, Go: runtime.Version(), Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: *traced}
	for _, w := range specs {
		var res *result
		var err error
		if *traced == 1 {
			res, err = runTraced(e, g, w, *seed, *seconds, *traceOut)
		} else {
			res, err = runEndToEnd(e, g, w, *seed, *seconds)
		}
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printResult(os.Stdout, g, w, *seed, res)
		doc.Results = append(doc.Results, res)
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	line, correct := contractLine(doc.Results)
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// contractLine renders the last line of output: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit. Over several
// workloads the tallies add up and each metric is prefixed with its workload.
func contractLine(results []*result) (string, bool) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = valueUnit{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err) // a non-finite metric: a bug in the benchmark
	}
	return string(b), line.Correct
}

// printResult writes the human-readable block of one workload: every metric
// by name with its unit, and what stands behind it.
func printResult(w io.Writer, g geometry, spec workloadSpec, seed int64, r *result) {
	fmt.Fprintf(w, "workload %s: seed %d, D-Code n=%d, %d B elements, %d stripes, %d caller(s)\n",
		r.Workload, seed, g.n, g.elem, g.stripes, spec.callers())
	for _, group := range []map[string]metricValue{r.Metrics, r.Detail} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			note := ""
			if m.Samples > 0 {
				note += fmt.Sprintf("  n=%d", m.Samples)
			}
			if m.SpreadPct != nil {
				note += fmt.Sprintf("  spread %.1f%%", *m.SpreadPct)
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", name, m.Value, m.Unit, note)
		}
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.Failure != "" {
		fmt.Fprintf(w, "  FIRST FAILURE: %s\n", r.Failure)
	}
}
