package lint

// The analyzers are pinned by analysistest-style golden packages: each
// testdata directory is a small package loaded against the real module
// under a synthetic import path chosen so the analyzer's package scoping
// matches (lockcheck's bracketing rule looks at ".../raid", gocheck and
// ctxcheck at ".../blockserve"). Expected findings are `// want "regex"`
// comments on the offending line; the test fails on any missing or
// unexpected finding, so every analyzer carries at least one positive and
// one negative case.

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	moduleVal  *Module
	moduleErr  error
)

// testModule loads the real module once and shares it across tests; golden
// packages are grafted onto it with LoadDir.
func testModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		moduleVal, moduleErr = LoadModule(filepath.Join("..", ".."))
	})
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return moduleVal
}

func runGolden(t *testing.T, analyzerName, dir, importPath string) {
	t.Helper()
	m := testModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", dir, err)
	}
	a := byName(analyzerName)
	if a == nil {
		t.Fatalf("no analyzer %q", analyzerName)
	}
	res := Run(m, []*Analyzer{a}, []*Package{pkg}, Options{})
	checkWants(t, m, pkg, res.Findings)
}

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts the `// want "regex"` expectations of a package.
func parseWants(t *testing.T, m *Module, pkg *Package) []*wantExpect {
	t.Helper()
	var out []*wantExpect
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := m.Position(c.Pos())
				for _, match := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := match[1]
					if pat == "" {
						pat = match[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &wantExpect{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkWants matches findings against expectations one-to-one.
func checkWants(t *testing.T, m *Module, pkg *Package, findings []Finding) {
	t.Helper()
	wants := parseWants(t, m, pkg)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestIOCheckGolden(t *testing.T) {
	runGolden(t, "iocheck", "iocheck", "dcode/ztest/iocheck")
}

func TestPoolCheckGolden(t *testing.T) {
	runGolden(t, "poolcheck", "poolcheck", "dcode/ztest/poolcheck")
}

func TestLockCheckGolden(t *testing.T) {
	runGolden(t, "lockcheck", "lockcheck", "dcode/ztest/lockcheck/raid")
}

func TestGoCheckGolden(t *testing.T) {
	runGolden(t, "gocheck", "gocheck", "dcode/ztest/gocheck/blockserve")
}

func TestCtxCheckGolden(t *testing.T) {
	runGolden(t, "ctxcheck", "ctxcheck", "dcode/ztest/ctxcheck/blockserve")
}

// TestRepoIsClean pins the acceptance bar the CI lint job enforces: the
// full registry over the real module yields zero unsuppressed findings, and
// every active suppression carries a justification.
func TestRepoIsClean(t *testing.T) {
	m := testModule(t)
	res := Run(m, Registry(), m.ModulePackages(), Options{CheckDirectives: true})
	for _, f := range res.Findings {
		t.Errorf("repo finding: %s", f)
	}
	for _, d := range res.Directives {
		if d.Justification == "" {
			t.Errorf("%s:%d: suppression without justification", d.Pos.Filename, d.Pos.Line)
		}
	}
}

// TestSuppressionHandling covers the directive machinery end to end: a
// justified suppression silences its finding, a justification-free one
// still silences but is itself a finding, and an unused one is a finding.
func TestSuppressionHandling(t *testing.T) {
	m := testModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "suppress"), "dcode/ztest/suppress")
	if err != nil {
		t.Fatalf("loading testdata/suppress: %v", err)
	}
	res := Run(m, Registry(), []*Package{pkg}, Options{CheckDirectives: true})

	if len(res.Suppressed) != 2 {
		t.Errorf("suppressed = %d findings, want 2 (both Flush findings)", len(res.Suppressed))
	}
	var missingJust, unused int
	for _, f := range res.Findings {
		switch {
		case f.Analyzer != "suppress":
			t.Errorf("unexpected non-suppress finding: %s", f)
		case strings.Contains(f.Message, "no justification"):
			missingJust++
		case strings.Contains(f.Message, "unused"):
			unused++
		default:
			t.Errorf("unexpected suppress finding: %s", f)
		}
	}
	if missingJust != 1 {
		t.Errorf("missing-justification findings = %d, want 1", missingJust)
	}
	if unused != 1 {
		t.Errorf("unused-directive findings = %d, want 1", unused)
	}

	// The suppression inventory dcodelint prints: every directive of the
	// scope, in order, with its target analyzer and whether it matched
	// anything.
	if len(res.Directives) != 3 {
		t.Fatalf("directives = %d, want 3", len(res.Directives))
	}
	for i, d := range res.Directives {
		if d.Target() != "iocheck" {
			t.Errorf("directive %d target = %q, want iocheck", i, d.Target())
		}
	}
	if !res.Directives[0].Used() || !res.Directives[1].Used() {
		t.Errorf("flush suppressions should be marked used: %v %v",
			res.Directives[0].Used(), res.Directives[1].Used())
	}
	if res.Directives[2].Used() {
		t.Errorf("directive on a finding-free function should be unused")
	}
}

// TestFindingFormat pins the machine-readable report format.
func TestFindingFormat(t *testing.T) {
	f := Finding{Analyzer: "iocheck", Message: "boom"}
	f.Pos.Filename = "x/y.go"
	f.Pos.Line = 7
	if got, want := f.String(), "x/y.go:7: [iocheck] boom"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
	if byName("nope") != nil {
		t.Errorf("byName(nope) should be nil")
	}
	if len(Registry()) != 5 {
		t.Errorf("registry = %d analyzers, want 5", len(Registry()))
	}
}
