package lint

// Suppression directives. The suite has exactly one machine-readable syntax,
// and justification text is mandatory — a suppression that does not say why
// it exists is itself a finding:
//
//	//lint:ignore <analyzer> <justification>
//	//lint:escape <justification>
//
// lint:ignore silences the named analyzer's findings on the directive's line
// (a directive on its own line covers the line below it, so it can sit above
// the statement it excuses). lint:escape is poolcheck's hand-off marker: it
// declares that the pooled value acquired or stored on that line
// intentionally outlives the function (for example, a buffer parked in a
// long-lived structure that puts it back later). Every dcodelint run lists
// both kinds, so CI logs every active exemption, and a directive that
// matches no finding is reported as unused.

import (
	"go/token"
	"sort"
	"strings"
)

// Directive is one parsed suppression comment.
type Directive struct {
	Pos           token.Position
	Kind          string // "ignore" or "escape"
	Analyzer      string // for "ignore": the analyzer it silences
	Justification string

	used bool
}

// Target names the analyzer the directive silences.
func (d *Directive) Target() string {
	if d.Kind == "ignore" {
		return d.Analyzer
	}
	return "poolcheck"
}

// Used reports whether any finding (or poolcheck escape site) matched the
// directive during the run.
func (d *Directive) Used() bool { return d.used }

// Directives indexes every directive of the scope by file and line.
type Directives struct {
	byLine map[string]map[int][]*Directive
	all    []*Directive
}

// collectDirectives parses the lint: comments of the scope packages. A
// directive registers on its own line and on the following line, so both
// trailing-comment and line-above placements work.
func collectDirectives(m *Module, scope []*Package) *Directives {
	ds := &Directives{byLine: make(map[string]map[int][]*Directive)}
	for _, pkg := range scope {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, "lint:") {
						continue
					}
					d := parseDirective(m.Position(c.Pos()), strings.TrimPrefix(text, "lint:"))
					if d == nil {
						continue
					}
					ds.all = append(ds.all, d)
					fileLines := ds.byLine[d.Pos.Filename]
					if fileLines == nil {
						fileLines = make(map[int][]*Directive)
						ds.byLine[d.Pos.Filename] = fileLines
					}
					fileLines[d.Pos.Line] = append(fileLines[d.Pos.Line], d)
					fileLines[d.Pos.Line+1] = append(fileLines[d.Pos.Line+1], d)
				}
			}
		}
	}
	sort.Slice(ds.all, func(i, j int) bool {
		a, b := ds.all[i].Pos, ds.all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return ds
}

// parseDirective parses the text after "lint:". Unknown kinds are ignored
// (they are not this tool's namespace); known kinds always produce a
// directive, even malformed ones, so Run can flag missing justifications.
func parseDirective(pos token.Position, text string) *Directive {
	kind, rest, _ := strings.Cut(text, " ")
	rest = strings.TrimSpace(rest)
	switch kind {
	case "ignore":
		analyzer, just, _ := strings.Cut(rest, " ")
		return &Directive{
			Pos:           pos,
			Kind:          "ignore",
			Analyzer:      analyzer,
			Justification: strings.TrimSpace(just),
		}
	case "escape":
		return &Directive{Pos: pos, Kind: "escape", Justification: rest}
	}
	return nil
}

// ignoreFor returns an ignore directive covering (file, line) for the named
// analyzer, or nil.
func (ds *Directives) ignoreFor(file string, line int, analyzer string) *Directive {
	for _, d := range ds.byLine[file][line] {
		if d.Kind == "ignore" && d.Analyzer == analyzer {
			return d
		}
	}
	return nil
}

// escapeAt returns an escape directive covering (file, line), or nil.
// poolcheck marks the directive used when it honors one.
func (ds *Directives) escapeAt(file string, line int) *Directive {
	for _, d := range ds.byLine[file][line] {
		if d.Kind == "escape" {
			return d
		}
	}
	return nil
}
