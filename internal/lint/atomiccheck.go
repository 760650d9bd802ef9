package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// atomiccheck enforces the all-or-nothing rule of sync/atomic: a memory cell
// that any code accesses through the atomic functions may never be read or
// written plainly anywhere else — the plain access races with the atomic one
// and the race detector only catches the interleavings the test happens to
// schedule. The analyzer is module-wide and two-phase:
//
//  1. Collect the atomic cells: every struct field whose address is taken in
//     an atomic.Add*/Load*/Store*/Swap*/CompareAndSwap* call (a "direct"
//     cell), and every pointer-typed field passed by value to one (a "deref"
//     cell — say, a field holding a *uint32 into memory shared with
//     another process or the kernel, whose every read must be atomic).
//
//  2. Flag the plain accesses: for a direct cell, any selector use outside an
//     atomic call argument; for a deref cell, any explicit dereference
//     (*q.sqTail) — passing the pointer itself around is fine, reading
//     through it without atomic.Load is not.
//
// Fields only: local variables used with atomics are almost always
// thread-confined staging values, and flagging them drowns the signal.
var atomicCheckAnalyzer = &Analyzer{
	Name: "atomiccheck",
	Doc:  "fields accessed via sync/atomic must never be accessed plainly",
	Run:  runAtomicCheck,
}

const (
	cellDirect = 1 << iota // &s.field handed to atomic functions
	cellDeref              // s.field is a pointer handed to atomic functions
)

// atomicCell records how a field participates in atomic calls.
type atomicCell struct {
	kinds   int
	example token.Pos // first atomic call, for the finding message
}

type atomicChecker struct {
	m     *Module
	cells map[*types.Var]*atomicCell
	// sanctioned marks selector nodes that appear inside an atomic call's
	// cell argument — the one place a direct cell's selector is legal.
	sanctioned map[ast.Node]bool
	findings   []Finding
}

func runAtomicCheck(ctx *Context) []Finding {
	c := &atomicChecker{
		m:          ctx.M,
		cells:      make(map[*types.Var]*atomicCell),
		sanctioned: make(map[ast.Node]bool),
	}
	for _, pkg := range ctx.M.Sorted {
		for _, fs := range functions(pkg) {
			c.collect(pkg, fs.decl.Body)
		}
	}
	for _, pkg := range ctx.M.Sorted {
		for _, fs := range functions(pkg) {
			c.flag(pkg, fs.decl.Body)
		}
	}
	return c.findings
}

// atomicCallCell returns the cell-argument expression of a sync/atomic call.
func atomicCallCell(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, false
	}
	name := fn.Name()
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			if len(call.Args) == 0 {
				return nil, false
			}
			return call.Args[0], true
		}
	}
	return nil, false
}

// fieldOf resolves e to a struct field variable, or nil.
func fieldOf(info *types.Info, e ast.Expr) (*types.Var, *ast.SelectorExpr) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	v := refVar(info, sel)
	if v == nil || !v.IsField() {
		return nil, nil
	}
	return v, sel
}

func (c *atomicChecker) collect(pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, ok := atomicCallCell(pkg.Info, call)
		if !ok {
			return true
		}
		switch e := ast.Unparen(arg).(type) {
		case *ast.UnaryExpr: // atomic.AddUint64(&s.field, 1)
			if e.Op != token.AND {
				return true
			}
			if v, sel := fieldOf(pkg.Info, e.X); v != nil {
				c.cell(v, cellDirect, call.Pos())
				c.sanctioned[sel] = true
			}
		case *ast.SelectorExpr: // atomic.LoadUint32(q.sqHead) — pointer field
			if v, sel := fieldOf(pkg.Info, e); v != nil {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
					c.cell(v, cellDeref, call.Pos())
					c.sanctioned[sel] = true
				}
			}
		}
		return true
	})
}

func (c *atomicChecker) cell(v *types.Var, kind int, pos token.Pos) {
	cell := c.cells[v]
	if cell == nil {
		cell = &atomicCell{example: pos}
		c.cells[v] = cell
	}
	cell.kinds |= kind
	if pos < cell.example {
		cell.example = pos
	}
}

func (c *atomicChecker) flag(pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.StarExpr:
			v, _ := fieldOf(pkg.Info, e.X)
			if v == nil {
				return true
			}
			if cell := c.cells[v]; cell != nil && cell.kinds&cellDeref != 0 {
				c.report(e.Pos(), fmt.Sprintf(
					"pointer field %s is accessed through sync/atomic (e.g. %s) but dereferenced plainly here — use atomic.Load/Store on it everywhere",
					v.Name(), c.where(cell.example)))
			}
		case *ast.SelectorExpr:
			if c.sanctioned[e] {
				return true
			}
			v := refVar(pkg.Info, e)
			if v == nil || !v.IsField() {
				return true
			}
			if cell := c.cells[v]; cell != nil && cell.kinds&cellDirect != 0 {
				c.report(e.Pos(), fmt.Sprintf(
					"field %s is updated through sync/atomic (e.g. %s) but read or written plainly here — every access to an atomic cell must go through sync/atomic",
					v.Name(), c.where(cell.example)))
			}
		}
		return true
	})
}

func (c *atomicChecker) where(pos token.Pos) string {
	p := c.m.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func (c *atomicChecker) report(pos token.Pos, msg string) {
	c.findings = append(c.findings, Finding{Pos: c.m.Position(pos), Analyzer: "atomiccheck", Message: msg})
}
