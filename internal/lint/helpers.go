package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcScope is one analyzable function body: a declared function or method.
// Function literals are walked as part of their enclosing declaration — for
// this engine's invariants that is the right attribution, because the data
// path's closures run while their creator's locks and buffers are live (the
// fanOut caller blocks on its workers).
type funcScope struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
}

// functions yields every declared function of the package that has a body.
func functions(pkg *Package) []funcScope {
	var out []funcScope
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			out = append(out, funcScope{pkg: pkg, decl: fd, obj: obj})
		}
	}
	return out
}

// staticCallee resolves a call expression to the *types.Func it statically
// invokes: package functions, methods (through Selections), and interface
// methods (resolving to the interface's method object). Calls through
// function values resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Fn): the selector has no Selection.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvType returns the receiver type of a method object, nil for functions.
func recvType(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type under t (through one pointer), or nil.
func namedOf(t types.Type) *types.Named {
	n, _ := deref(t).(*types.Named)
	return n
}

// typePkgPath returns the package path declaring t's named type, "" when t
// is not named (or is from the universe scope).
func typePkgPath(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// typeIs reports whether t (through one pointer) is the named type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == name && typePkgPath(t) == pkgPath
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return typeIs(t, "sync", "Mutex") || typeIs(t, "sync", "RWMutex")
}

// deviceMethodNames is the accounting-bearing device I/O surface: the Device
// methods, LinkedDevice's link pair and MemDevice's Lend — a discarded
// scatter/gather or lend error skips failure marking exactly as a discarded
// ReadAt error would.
var deviceMethodNames = map[string]bool{
	"ReadAt": true, "WriteAt": true, "ReadVecAt": true, "WriteVecAt": true,
	"ReadVecAtLink": true, "WriteVecAtLink": true, "Lend": true,
}

// deviceCall classifies a call as device-surface I/O: a deviceMethodNames
// method whose receiver is a blockdev type (Device implementations and the
// LinkedDevice view) or a module type exposing the same surface (the raid
// array and its facade). It returns the method object and whether the call
// writes.
func deviceCall(m *Module, info *types.Info, call *ast.CallExpr) (fn *types.Func, isWrite bool, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK || !deviceMethodNames[sel.Sel.Name] {
		return nil, false, false
	}
	selection, selOK := info.Selections[sel]
	if !selOK {
		return nil, false, false
	}
	fn, fnOK := selection.Obj().(*types.Func)
	if !fnOK {
		return nil, false, false
	}
	recv := selection.Recv()
	path := typePkgPath(recv)
	if _, iface := deref(recv).Underlying().(*types.Interface); iface && path == "" {
		return nil, false, false // anonymous interface: not ours
	}
	switch {
	case strings.HasSuffix(path, "/blockdev"):
	case path == m.Path || strings.HasPrefix(path, m.Path+"/"):
		// A module type with the device surface (raid.Array, the facade):
		// require both halves so an unrelated io.ReaderAt does not match.
		if !hasMethod(recv, "ReadAt") || !hasMethod(recv, "WriteAt") {
			return nil, false, false
		}
	default:
		return nil, false, false
	}
	return fn, strings.HasPrefix(sel.Sel.Name, "Write"), true
}

// hasMethod reports whether t (or *t) has a method with the given name.
// The lookup runs in the named type's own package so unexported method
// names (the module's get*/put* wrapper pairs) resolve too.
func hasMethod(t types.Type, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}

// callGraph is the module-wide static call graph: declared function →
// declared functions it (or any closure inside it) calls directly.
type callGraph struct {
	nodes   map[*types.Func]funcScope
	callees map[*types.Func][]*types.Func
}

// buildCallGraph indexes every declared function of every package.
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{
		nodes:   make(map[*types.Func]funcScope),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range m.Sorted {
		for _, fs := range functions(pkg) {
			if fs.obj != nil {
				g.nodes[fs.obj] = fs
			}
		}
	}
	for obj, fs := range g.nodes {
		seen := make(map[*types.Func]bool)
		ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(fs.pkg.Info, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := g.nodes[callee]; !inModule {
				return true
			}
			seen[callee] = true
			g.callees[obj] = append(g.callees[obj], callee)
			return true
		})
	}
	return g
}

// flowUnit is one dataflow analysis unit: a declared function body or a
// function literal body, with the parameter lists that seed its entry state.
type flowUnit struct {
	body  *ast.BlockStmt
	ftype *ast.FuncType
	recv  *ast.FieldList // nil for literals and plain functions
}

// funcUnits yields the declaration's body plus every function literal inside
// it, each as its own unit. The CFG builder never descends into literals, so
// a unit's graph covers exactly its own nesting level.
func funcUnits(fs funcScope) []flowUnit {
	units := []flowUnit{{body: fs.decl.Body, ftype: fs.decl.Type, recv: fs.decl.Recv}}
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			units = append(units, flowUnit{body: lit.Body, ftype: lit.Type})
		}
		return true
	})
	return units
}

// inspectShallow walks n without descending into function literals: the
// per-statement scans of a unit must not see a nested unit's statements.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// refVar resolves a variable-shaped expression — an identifier, a field
// selector chain (s.wg, c.srv.sem), a pointer deref, or an address-of — to
// the variable or field object that identifies it across the function.
// Dynamic shapes (map/slice elements, call results) resolve to nil.
func refVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return identVar(info, e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Package-qualified variable: the selector has no Selection.
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.StarExpr:
		return refVar(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return refVar(info, e.X)
		}
	}
	return nil
}

// funcDisplayName renders raid.(*Array).WriteAt style names for messages.
func funcDisplayName(fn *types.Func) string {
	if fn == nil {
		return "<anonymous>"
	}
	name := fn.Name()
	if rt := recvType(fn); rt != nil {
		if n := namedOf(rt); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
