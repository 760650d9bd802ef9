// dcodelint runs the project's static analyzers (internal/lint) over the
// module: iocheck, poolcheck, lockcheck, geomcheck, and the dataflow-engine
// trio gocheck, ctxcheck and atomiccheck, plus hygiene checks on the
// suppression directives themselves. It exits 1 when any unsuppressed
// finding remains, so CI can gate on it.
//
// Usage:
//
//	dcodelint [flags] [./...]
//
//	-C dir          module root to analyze (default: walk up from .)
//	-analyzers a,b  run only the named analyzers (skips directive hygiene)
//	-json           emit findings as JSON Lines (one object per finding,
//	                suppressed ones included with "suppressed": true)
//	-list           print the registered analyzers and exit
//	-suppressions   print every active suppression directive and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dcode/internal/lint"
)

// jsonFinding is the machine-readable form of one finding, for the CI
// artifact: stable lowercase keys, one object per line.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	root := flag.String("C", "", "module root (default: nearest go.mod above the working directory)")
	analyzerList := flag.String("analyzers", "", "comma-separated subset of analyzers to run")
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines (suppressed findings included, flagged)")
	listOnly := flag.Bool("list", false, "list registered analyzers and exit")
	suppressions := flag.Bool("suppressions", false, "list active suppression directives and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dcodelint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the project's invariant analyzers over the module. Package\n")
		fmt.Fprintf(flag.CommandLine.Output(), "arguments restrict where findings are reported (./... or import-path\n")
		fmt.Fprintf(flag.CommandLine.Output(), "suffixes); the analyses always see the whole module.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Registry() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	moduleRoot, err := resolveRoot(*root)
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(moduleRoot)
	if err != nil {
		fatal(err)
	}

	analyzers := lint.Registry()
	fullRegistry := true
	if *analyzerList != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*analyzerList, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fatal(fmt.Errorf("dcodelint: unknown analyzer %q", name))
			}
			analyzers = append(analyzers, a)
		}
		fullRegistry = len(analyzers) == len(lint.Registry())
	}

	scope, err := selectScope(m, flag.Args())
	if err != nil {
		fatal(err)
	}

	res := lint.Run(m, analyzers, scope, lint.Options{
		// Directive hygiene (missing justifications, unused suppressions) is
		// only meaningful when every analyzer ran.
		CheckDirectives: fullRegistry,
	})

	if *suppressions {
		if len(res.Directives) == 0 {
			fmt.Println("no active suppressions")
			return
		}
		for _, d := range res.Directives {
			state := "active"
			if !d.Used() {
				state = "UNUSED"
			}
			fmt.Printf("%s:%d: lint:%s [%s] %s (%s)\n",
				d.Pos.Filename, d.Pos.Line, d.Kind, d.Target(), d.Justification, state)
		}
		return
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		emit := func(f lint.Finding, suppressed bool) {
			if err := enc.Encode(jsonFinding{
				File:       f.Pos.Filename,
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: suppressed,
			}); err != nil {
				fatal(err)
			}
		}
		for _, f := range res.Findings {
			emit(f, false)
		}
		for _, f := range res.Suppressed {
			emit(f, true)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(os.Stderr, "dcodelint: %d finding(s) suppressed by lint directives (run -suppressions to list them)\n", n)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "dcodelint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// resolveRoot locates the module root: the -C value, or the nearest parent
// directory holding a go.mod.
func resolveRoot(flagRoot string) (string, error) {
	if flagRoot != "" {
		return flagRoot, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("dcodelint: no go.mod found above the working directory (use -C)")
		}
		dir = parent
	}
}

// selectScope maps package arguments to loaded packages. No arguments or
// "./..." selects the whole module; anything else matches import-path
// suffixes (e.g. internal/raid or ./cmd/loadgen).
func selectScope(m *lint.Module, args []string) ([]*lint.Package, error) {
	all := m.ModulePackages()
	if len(args) == 0 {
		return all, nil
	}
	var out []*lint.Package
	seen := make(map[*lint.Package]bool)
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return all, nil
		}
		pattern := strings.TrimPrefix(filepath.ToSlash(arg), "./")
		matched := false
		for _, pkg := range all {
			if pkg.ImportPath == pattern || strings.HasSuffix(pkg.ImportPath, "/"+pattern) {
				if !seen[pkg] {
					seen[pkg] = true
					out = append(out, pkg)
				}
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("dcodelint: no package matches %q", arg)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
