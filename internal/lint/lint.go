package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one analyzer report, formatted as "file:line: [name] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one registered check. Run receives the whole module (so
// call-graph analyzers can see across packages) and may report findings
// anywhere; the engine keeps only those inside the requested scope.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(ctx *Context) []Finding
}

// Context is what an analyzer run sees.
type Context struct {
	M     *Module
	Scope []*Package  // packages findings may be reported against
	Dirs  *Directives // suppression/escape directives of the scope

	files map[string]bool // lazily built scope-file set
}

// InScope reports whether a file belongs to a scope package.
func (c *Context) InScope(filename string) bool {
	if c.files == nil {
		c.files = make(map[string]bool)
		for _, p := range c.Scope {
			for _, fn := range p.Filenames {
				c.files[fn] = true
			}
		}
	}
	return c.files[filename]
}

// Registry returns every analyzer in reporting order.
func Registry() []*Analyzer {
	return []*Analyzer{
		ioCheckAnalyzer,
		poolCheckAnalyzer,
		lockCheckAnalyzer,
		goCheckAnalyzer,
		ctxCheckAnalyzer,
	}
}

// byName returns the named analyzer, or nil.
func byName(name string) *Analyzer {
	for _, a := range Registry() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Options tunes a Run.
type Options struct {
	// CheckDirectives adds findings for malformed (justification-free) and
	// unused suppression directives. Enable it only when running the full
	// registry — a directive for an analyzer that did not run would
	// otherwise look unused.
	CheckDirectives bool
}

// Result is the outcome of a Run.
type Result struct {
	Findings   []Finding    // surviving findings, sorted by position
	Suppressed []Finding    // findings silenced by an ignore directive
	Directives []*Directive // every directive seen in scope, position-sorted
}

// Run executes the analyzers over the module, reporting on the scope
// packages and applying suppression directives.
func Run(m *Module, analyzers []*Analyzer, scope []*Package, opts Options) Result {
	dirs := collectDirectives(m, scope)
	ctx := &Context{M: m, Scope: scope, Dirs: dirs}
	var res Result
	for _, a := range analyzers {
		for _, f := range a.Run(ctx) {
			if !ctx.InScope(f.Pos.Filename) {
				continue
			}
			if d := dirs.ignoreFor(f.Pos.Filename, f.Pos.Line, f.Analyzer); d != nil {
				d.used = true
				res.Suppressed = append(res.Suppressed, f)
				continue
			}
			res.Findings = append(res.Findings, f)
		}
	}
	if opts.CheckDirectives {
		for _, d := range dirs.all {
			if d.Justification == "" {
				res.Findings = append(res.Findings, Finding{
					Pos:      d.Pos,
					Analyzer: "suppress",
					Message:  fmt.Sprintf("lint:%s directive has no justification text", d.Kind),
				})
				continue
			}
			if d.Kind == "ignore" && d.Analyzer != "suppress" && byName(d.Analyzer) == nil {
				res.Findings = append(res.Findings, Finding{
					Pos:      d.Pos,
					Analyzer: "suppress",
					Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q — the directive can never match a finding", d.Analyzer),
				})
				continue
			}
			if !d.used {
				res.Findings = append(res.Findings, Finding{
					Pos:      d.Pos,
					Analyzer: "suppress",
					Message:  fmt.Sprintf("unused lint:%s directive (%s): nothing on this line needs it", d.Kind, d.Target()),
				})
			}
		}
	}
	res.Directives = dirs.all
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}
