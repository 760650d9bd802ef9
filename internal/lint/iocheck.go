package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// iocheck enforces the I/O-accounting invariant: every error produced by the
// device surface (blockdev Device implementations, the LinkedDevice pair,
// MemDevice's Lend, and module types exposing the same ReadAt/WriteAt
// surface, i.e. the raid array and its facade) must be consumed. A discarded device error silently
// skips failure marking, read-repair, and the per-disk load accounting the
// paper's evaluation rests on. It also covers the classic print-and-exit
// leak in tools: discarding the error of a write-side finisher —
// tabwriter/bufio Flush, or Close on a file opened for writing — loses
// buffered output and write-back failures after the data path succeeded.
var ioCheckAnalyzer = &Analyzer{
	Name: "iocheck",
	Doc:  "device I/O and write-side finisher errors must be consumed",
	Run:  runIOCheck,
}

func runIOCheck(ctx *Context) []Finding {
	var out []Finding
	for _, pkg := range ctx.M.Sorted {
		for _, fs := range functions(pkg) {
			out = append(out, ioCheckFunc(ctx.M, pkg, fs)...)
		}
	}
	return out
}

func ioCheckFunc(m *Module, pkg *Package, fs funcScope) []Finding {
	var out []Finding
	writable := writableFiles(pkg.Info, fs.decl.Body)
	report := func(call *ast.CallExpr, how string) {
		msg, ok := ioCheckTarget(m, pkg.Info, call, writable)
		if !ok {
			return
		}
		out = append(out, Finding{
			Pos:      m.Position(call.Pos()),
			Analyzer: "iocheck",
			Message:  fmt.Sprintf("%s is %s", msg, how),
		})
	}
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
				report(call, "discarded")
			}
		case *ast.DeferStmt:
			report(stmt.Call, "discarded by defer (check it in a named-error defer or close explicitly)")
		case *ast.GoStmt:
			report(stmt.Call, "discarded by go statement")
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, isIdent := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); isIdent && id.Name == "_" {
				report(call, "assigned to the blank identifier")
			}
		}
		return true
	})
	return out
}

// ioCheckTarget classifies a call the analyzer cares about, returning a
// description of what produced the ignored error.
func ioCheckTarget(m *Module, info *types.Info, call *ast.CallExpr, writable map[*types.Var]bool) (string, bool) {
	if !callReturnsError(info, call) {
		return "", false
	}
	if fn, _, ok := deviceCall(m, info, call); ok {
		return fmt.Sprintf("device I/O error from %s", funcDisplayName(fn)), true
	}
	// The blockserve wire surface — the whole-frame functions, the header
	// decoder of the split codec and Writer's vectored WriteFrame: a discarded
	// frame read/write error desynchronizes the protocol stream — every frame
	// after it is garbage.
	if fn := staticCallee(info, call); fn != nil && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "/blockserve") &&
		(fn.Name() == "WriteFrame" || fn.Name() == "ReadFrame" || fn.Name() == "ReadHeader") {
		return fmt.Sprintf("wire frame error from %s", funcDisplayName(fn)), true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	switch sel.Sel.Name {
	case "Write":
		// A discarded net.Conn write error leaves the peer waiting on bytes
		// that never arrived, with no failure recorded on this side.
		if typeIs(recv, "net", "Conn") {
			return "connection write error", true
		}
	case "Flush":
		if typeIs(recv, "text/tabwriter", "Writer") || typeIs(recv, "bufio", "Writer") {
			return fmt.Sprintf("buffered-output Flush error from %s", funcDisplayName(selection.Obj().(*types.Func))), true
		}
	case "Close":
		if !typeIs(recv, "os", "File") {
			return "", false
		}
		if id, isIdent := ast.Unparen(sel.X).(*ast.Ident); isIdent {
			if v, isVar := info.Uses[id].(*types.Var); isVar && writable[v] {
				return "Close error on a file opened for writing", true
			}
		}
	}
	return "", false
}

// callReturnsError reports whether the call's last result is an error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// writableFiles collects the local variables bound to os.Create/os.OpenFile
// results inside body: files whose Close error reports write-back failures.
func writableFiles(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if fn.Name() != "Create" && fn.Name() != "OpenFile" {
			return true
		}
		if id, isIdent := assign.Lhs[0].(*ast.Ident); isIdent {
			var v *types.Var
			if obj, ok := info.Defs[id].(*types.Var); ok {
				v = obj
			} else if obj, ok := info.Uses[id].(*types.Var); ok {
				v = obj
			}
			if v != nil {
				out[v] = true
			}
		}
		return true
	})
	return out
}
