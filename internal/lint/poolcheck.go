package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// poolcheck enforces get/put pairing for pooled buffers: every acquisition
// from a sync.Pool or a module getX/putX wrapper pair (the
// raid layer's getScratch/putScratch, getColBuf/putColBuf, getOpBuf/
// putOpBuf and erasure's getScratch/putScratch are discovered from the
// method pairs, not hardcoded) must reach a matching put on every return
// path of the function that acquired it. A leaked buffer silently degrades
// the steady-state zero-allocation property PR 2 pinned; worse, a pooled
// buffer stored into a struct field or captured by a `go` statement can be
// handed to another goroutine while a later Get reuses it — a data race no
// test reliably catches.
//
// The analysis is a forward dataflow over the shared CFG (cfg.go): the
// state is the set of live acquisitions (union join at merges, defers
// release for the whole function), narrowed along branch edges for the
// `if v := pool.Get(); v != nil` miss-then-allocate pattern, and filtered
// at loop back edges — an acquisition born inside a loop body that is still
// live when the iteration ends leaks once per iteration. Because breaks are
// real edges here, a hold escaping a loop through `break` is tracked to the
// function exit, which the old structured walk could not see. Intentional
// hand-offs — returning the value from a get-named wrapper is recognized
// automatically — are annotated with `//lint:escape <justification>` on the
// acquisition, store, or return line.
//
// Known approximations, chosen to keep the transfer functions simple and
// the findings high-confidence: a put is matched by callee name and
// argument, not by proving it returns to the same pool instance; values
// passed to ordinary calls are treated as borrows (the callee returns
// before the caller's next statement — true for this codebase's synchronous
// helpers, including fanOut, which blocks on its workers); only direct `go`
// statements count as goroutine capture.
var poolCheckAnalyzer = &Analyzer{
	Name: "poolcheck",
	Doc:  "pooled buffers must be returned to their pool on every path",
	Run:  runPoolCheck,
}

func runPoolCheck(ctx *Context) []Finding {
	var out []Finding
	for _, pkg := range ctx.M.Sorted {
		for _, fs := range functions(pkg) {
			w := newPoolWalker(ctx, pkg, isGetterName(fs.decl.Name.Name))
			w.checkBody(fs.decl.Body)
			out = append(out, w.findings...)
			// Each function literal is its own analysis unit: it has its own
			// return paths, and its acquisitions must pair inside it.
			ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				lw := newPoolWalker(ctx, pkg, false)
				lw.checkBody(lit.Body)
				out = append(out, lw.findings...)
				return true
			})
		}
	}
	return out
}

func isGetterName(name string) bool {
	return strings.HasPrefix(name, "get") || strings.HasPrefix(name, "Get")
}

// poolHold is one live acquisition, canonicalized by acquisition site so the
// solver's repeated transfers reuse the same object (see flowSpec.transfer).
type poolHold struct {
	primary *types.Var
	pos     token.Pos
}

// poolHolds maps every alias (including the primary) to its hold.
type poolHolds map[*types.Var]*poolHold

func (h poolHolds) clone() poolHolds {
	out := make(poolHolds, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (h poolHolds) dropHold(hold *poolHold) {
	for k, v := range h {
		if v == hold {
			delete(h, k)
		}
	}
}

func (h poolHolds) live() []*poolHold {
	seen := make(map[*poolHold]bool)
	var out []*poolHold
	for _, v := range h {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// joinHolds is the union; on an alias conflict the earlier acquisition wins,
// keeping the join deterministic across solver visit orders.
func joinHolds(dst, src poolHolds) poolHolds {
	for k, v := range src {
		if old, ok := dst[k]; ok && old != v && old.pos <= v.pos {
			continue
		}
		dst[k] = v
	}
	return dst
}

func holdsEqual(a, b poolHolds) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

type reportKey struct {
	at   token.Pos
	hold *poolHold
}

type poolWalker struct {
	m        *Module
	pkg      *Package
	dirs     *Directives
	getterOK bool
	silent   bool // true while the solver iterates; reporting is replay-only
	findings []Finding
	reported map[reportKey]bool
	holdAt   map[token.Pos]*poolHold
}

func newPoolWalker(ctx *Context, pkg *Package, getterOK bool) *poolWalker {
	return &poolWalker{
		m:        ctx.M,
		pkg:      pkg,
		dirs:     ctx.Dirs,
		getterOK: getterOK,
		reported: make(map[reportKey]bool),
		holdAt:   make(map[token.Pos]*poolHold),
	}
}

// checkBody runs the dataflow over one unit: solve to the fixed point
// silently, then replay every reached block once over its converged entry
// state with reporting on, and close with the loop and fall-off obligations.
func (w *poolWalker) checkBody(body *ast.BlockStmt) {
	g := buildCFG(w.pkg.Info, body)
	w.silent = true
	res := solveFlow(g, flowSpec[poolHolds]{
		entry:    make(poolHolds),
		clone:    poolHolds.clone,
		join:     joinHolds,
		equal:    holdsEqual,
		transfer: w.transferBlock,
		edge:     w.edgeFilter,
	})
	w.silent = false
	for _, b := range g.blocks {
		if res.reached(b) {
			w.transferBlock(b, res.in[b].clone())
		}
	}
	for _, e := range g.backEdges {
		if !res.reached(e.from) {
			continue
		}
		for _, hold := range res.out[e.from].live() {
			if e.loop.contains(hold.pos) {
				w.report(e.loop.body.Rbrace, hold, fmt.Sprintf(
					"pooled value %s (acquired at line %d) is acquired inside a loop and not released each iteration",
					hold.primary.Name(), w.m.Position(hold.pos).Line))
			}
		}
	}
	if g.fallsOff != nil && res.reached(g.fallsOff) {
		w.reportLeaks(body.Rbrace, res.out[g.fallsOff])
	}
}

// transferBlock applies one basic block's statements to the held set.
func (w *poolWalker) transferBlock(b *cfgBlock, held poolHolds) poolHolds {
	for _, stmt := range b.stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			w.handleAssign(s, held)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				w.handleCall(call, held)
			}
		case *ast.DeferStmt:
			w.handleDefer(s.Call, held)
		case *ast.GoStmt:
			w.handleGo(s, held)
		case *ast.ReturnStmt:
			w.handleReturn(s, held)
		}
	}
	return held
}

// edgeFilter narrows state along branch edges (nil-checked acquisitions hold
// nothing on their nil branch) and retires loop-born holds at back edges —
// those are per-iteration obligations, reported against the loop itself.
func (w *poolWalker) edgeFilter(from, to *cfgBlock, branch int, back *cfgLoop, st poolHolds) poolHolds {
	if branch >= 0 {
		// `if v := pool.Get(); v != nil { ... }` holds nothing on the nil
		// branch — the classic miss-then-allocate pattern.
		if v, nonNilOnTrue, ok := nilCheckedVar(w.pkg.Info, from.cond); ok {
			if hold, isHeld := st[v]; isHeld && nonNilOnTrue == (branch == 1) {
				st.dropHold(hold)
			}
		}
	}
	if back != nil {
		for _, hold := range st.live() {
			if back.contains(hold.pos) {
				st.dropHold(hold)
			}
		}
	}
	return st
}

// report emits one finding unless an escape directive covers the finding
// line or the acquisition line.
func (w *poolWalker) report(at token.Pos, hold *poolHold, msg string) {
	if w.silent {
		return
	}
	key := reportKey{at: at, hold: hold}
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	pos := w.m.Position(at)
	for _, line := range []token.Position{pos, w.m.Position(hold.pos)} {
		if d := w.dirs.escapeAt(line.Filename, line.Line); d != nil {
			d.used = true
			return
		}
	}
	w.findings = append(w.findings, Finding{Pos: pos, Analyzer: "poolcheck", Message: msg})
}

func (w *poolWalker) reportLeaks(at token.Pos, held poolHolds) {
	for _, hold := range held.live() {
		w.report(at, hold, fmt.Sprintf(
			"pooled value %s (acquired at line %d) is not returned to its pool on this path",
			hold.primary.Name(), w.m.Position(hold.pos).Line))
	}
}

// holdOf returns the canonical hold for an acquisition site.
func (w *poolWalker) holdOf(v *types.Var, pos token.Pos) *poolHold {
	if h, ok := w.holdAt[pos]; ok {
		return h
	}
	h := &poolHold{primary: v, pos: pos}
	w.holdAt[pos] = h
	return h
}

// handleAssign processes acquisitions (v := pool.Get()), aliases
// (w := v.(*T)), escaping stores (x.f = v, m[k] = v), and discarded
// acquisitions (_ = pool.Get()).
func (w *poolWalker) handleAssign(s *ast.AssignStmt, held poolHolds) {
	// Escaping stores first: struct fields and indexed stores outlive the
	// function, which breaks the pool's exclusive-ownership contract.
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhsVar := identVar(w.pkg.Info, unwrapValue(s.Rhs[i]))
		if rhsVar == nil {
			continue
		}
		hold, isHeld := held[rhsVar]
		if !isHeld {
			continue
		}
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			w.report(lhs.Pos(), hold, fmt.Sprintf(
				"pooled value %s (acquired at line %d) is stored into a longer-lived structure",
				hold.primary.Name(), w.m.Position(hold.pos).Line))
			held.dropHold(hold) // ownership handed off; don't double-report
		}
	}
	if len(s.Rhs) != 1 {
		return
	}
	rhs := unwrapValue(s.Rhs[0])
	// Alias: x := heldVar (possibly through a type assertion/conversion).
	if v := identVar(w.pkg.Info, rhs); v != nil {
		if hold, ok := held[v]; ok {
			if lv := lhsVar(w.pkg.Info, s.Lhs[0]); lv != nil {
				held[lv] = hold
			}
		}
		return
	}
	// Acquisition.
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !w.isAcquisition(call) {
		return
	}
	lv := lhsVar(w.pkg.Info, s.Lhs[0])
	if lv == nil {
		w.report(call.Pos(), w.holdOf(nil, call.Pos()),
			"pooled value is acquired and immediately discarded")
		return
	}
	held[lv] = w.holdOf(lv, call.Pos())
}

// handleCall processes a statement-level call: releases drop their holds.
func (w *poolWalker) handleCall(call *ast.CallExpr, held poolHolds) {
	if !isReleaseCall(w.pkg.Info, call) {
		return
	}
	for _, arg := range call.Args {
		if v := identVar(w.pkg.Info, unwrapValue(arg)); v != nil {
			if hold, ok := held[v]; ok {
				held.dropHold(hold)
			}
		}
	}
}

// handleDefer treats a deferred release (directly or via a closure) as
// releasing for the whole function — defers run on every exit path.
func (w *poolWalker) handleDefer(call *ast.CallExpr, held poolHolds) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				w.handleCall(inner, held)
			}
			return true
		})
		return
	}
	w.handleCall(call, held)
}

// handleGo flags pooled values captured by a spawned goroutine: the caller
// may put the buffer back while the goroutine still uses it.
func (w *poolWalker) handleGo(s *ast.GoStmt, held poolHolds) {
	check := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if v := identVar(w.pkg.Info, n); v != nil {
				if hold, okHeld := held[v]; okHeld {
					w.report(n.Pos(), hold, fmt.Sprintf(
						"pooled value %s (acquired at line %d) is captured by a goroutine",
						hold.primary.Name(), w.m.Position(hold.pos).Line))
				}
			}
			return true
		})
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		check(lit.Body)
	}
	for _, arg := range s.Call.Args {
		check(arg)
	}
}

// handleReturn releases holds returned by get-named wrappers, flags other
// escapes, and reports leaks for everything still held.
func (w *poolWalker) handleReturn(s *ast.ReturnStmt, held poolHolds) {
	for _, res := range s.Results {
		v := identVar(w.pkg.Info, unwrapValue(res))
		if v == nil {
			continue
		}
		hold, ok := held[v]
		if !ok {
			continue
		}
		if !w.getterOK {
			w.report(res.Pos(), hold, fmt.Sprintf(
				"pooled value %s (acquired at line %d) escapes by return from a non-getter function",
				hold.primary.Name(), w.m.Position(hold.pos).Line))
		}
		held.dropHold(hold) // ownership transferred to the caller
	}
	w.reportLeaks(s.Pos(), held)
}

// nilCheckedVar matches a `v != nil` / `v == nil` condition, returning the
// variable and whether the non-nil case is the true branch.
func nilCheckedVar(info *types.Info, cond ast.Expr) (*types.Var, bool, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false, false
	}
	v := identVar(info, x)
	if v == nil {
		return nil, false, false
	}
	return v, bin.Op == token.NEQ, true
}

func isNilIdent(info *types.Info, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// unwrapValue strips parens, type assertions and conversions so aliasing
// through `v.(*T)` or `T(v)` is tracked.
func unwrapValue(expr ast.Expr) ast.Expr {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.TypeAssertExpr:
			expr = e.X
		default:
			return e
		}
	}
}

// identVar resolves an expression to the local variable it names, nil
// otherwise.
func identVar(info *types.Info, n ast.Node) *types.Var {
	id, ok := n.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Defs[id].(*types.Var)
	return v
}

func lhsVar(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return identVar(info, id)
}

// isAcquisition reports whether the call takes ownership of a pooled value:
// sync.Pool.Get, or a module get-named method whose receiver type also has
// the matching put-named method and which returns a single pointer-like
// value (so a Get that copies into the caller's buffer and returns a found
// bool does not match).
func (w *poolWalker) isAcquisition(call *ast.CallExpr) bool {
	fn := staticCallee(w.pkg.Info, call)
	if fn == nil {
		return false
	}
	recv := recvType(fn)
	if recv == nil {
		return false
	}
	if fn.Name() == "Get" && typeIs(recv, "sync", "Pool") {
		return true
	}
	path := typePkgPath(recv)
	if path == "" || !w.m.inModule(path) {
		return false
	}
	putName, ok := pairedPutName(fn.Name())
	if !ok || !hasMethod(recv, putName) {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	switch sig.Results().At(0).Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Interface:
		return true
	}
	return false
}

func pairedPutName(getName string) (string, bool) {
	switch {
	case strings.HasPrefix(getName, "get"):
		return "put" + getName[len("get"):], true
	case strings.HasPrefix(getName, "Get"):
		return "Put" + getName[len("Get"):], true
	}
	return "", false
}

// isReleaseCall matches put-named calls (sync.Pool.Put and the module's put*
// wrappers). The release is matched by name and argument, not by pool
// identity — see the package comment on approximations.
func isReleaseCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	return strings.HasPrefix(fn.Name(), "put") || strings.HasPrefix(fn.Name(), "Put")
}

// isTerminatingCall recognizes calls that never return.
func isTerminatingCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// The builtin resolves to *types.Builtin (or is absent from Uses);
		// a shadowing local func named panic resolves to *types.Func.
		if fun.Name == "panic" {
			switch info.Uses[fun].(type) {
			case nil, *types.Builtin:
				return true
			}
		}
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	switch full {
	case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return true
	}
	return false
}
