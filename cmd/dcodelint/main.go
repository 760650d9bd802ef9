// dcodelint runs the project's static analyzers (internal/lint) over the
// module: iocheck, poolcheck, lockcheck, gocheck and ctxcheck, plus hygiene
// checks on the suppression directives themselves. It prints every finding,
// then the active suppressions, and exits 1 when any unsuppressed finding
// remains, so CI can gate on it.
//
// Usage:
//
//	dcodelint [-C dir] [packages]
//
// -C names the module root (default: the nearest go.mod above the working
// directory). Package arguments (./... or import-path suffixes) restrict
// where findings are reported; the analyses always see the whole module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dcode/internal/lint"
)

func main() {
	root := flag.String("C", "", "module root (default: nearest go.mod above the working directory)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dcodelint [-C dir] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the project's invariant analyzers over the module. Package\n")
		fmt.Fprintf(flag.CommandLine.Output(), "arguments restrict where findings are reported (./... or import-path\n")
		fmt.Fprintf(flag.CommandLine.Output(), "suffixes); the analyses always see the whole module.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	moduleRoot, err := resolveRoot(*root)
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(moduleRoot)
	if err != nil {
		fatal(err)
	}
	scope, err := selectScope(m, flag.Args())
	if err != nil {
		fatal(err)
	}
	res := lint.Run(m, lint.Registry(), scope, lint.Options{CheckDirectives: true})

	for _, f := range res.Findings {
		fmt.Println(f)
	}
	// The suppression inventory: every directive of the scope, so a run's log
	// shows each active exemption and its justification.
	fmt.Fprintf(os.Stderr, "dcodelint: %d suppression(s)\n", len(res.Directives))
	for _, d := range res.Directives {
		state := "active"
		if !d.Used() {
			state = "UNUSED"
		}
		fmt.Fprintf(os.Stderr, "%s:%d: lint:%s [%s] %s (%s)\n",
			d.Pos.Filename, d.Pos.Line, d.Kind, d.Target(), d.Justification, state)
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
