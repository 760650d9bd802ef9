package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockcheck pins the engine's two locking invariants.
//
// Ordering: the array's mutexes form ranked classes — opMu (0, the array
// op gate) before the per-stripe locks (1), before ordinary leaf mutexes
// (2: the journal ring, plan memo, local collectors), with
// failMu (3) innermost: the failure-set accessors are tiny critical
// sections that must never call back out into the engine. Acquiring a
// class of lower rank than one already held — directly, or transitively
// through a callee — is a potential deadlock cycle and is reported.
//
// Bracketing: every device write in internal/raid must happen under a
// per-stripe lock (the data path, which holds opMu shared and serializes
// per stripe) or under opMu held exclusively (maintenance: FailDisk,
// Rebuild, Scrub — which excludes the whole data path). The check walks
// writes and call edges with the held set and propagates the obligation
// up the call graph; an exported (or uncalled) function from which an
// unbracketed write is reachable is reported with the witness chain.
// Construction-time writes that run before the array is published are the
// intended suppression case (lint:ignore lockcheck with justification).
//
// Closures are attributed to their enclosing declaration: the fan-out
// workers run while their spawner blocks, so the spawner's held locks are
// exactly the constraints the workers inherit.
var lockCheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "lock ordering (opMu < stripe < leaf < failMu) and write bracketing",
	Run:  runLockCheck,
}

const (
	rankOpMu   = 0
	rankStripe = 1
	rankLeaf   = 2
	rankFail   = 3
)

func lockRank(class string) int {
	switch class {
	case "opMu":
		return rankOpMu
	case "stripe":
		return rankStripe
	case "failMu":
		return rankFail
	}
	return rankLeaf
}

func lockRankName(rank int) string {
	switch rank {
	case rankOpMu:
		return "opMu"
	case rankStripe:
		return "per-stripe"
	case rankLeaf:
		return "leaf"
	}
	return "failMu"
}

// lockState tracks one held class.
type lockState struct {
	count     int
	exclusive bool
}

// lockCallSite is one module-internal call edge with the held set at the
// moment of the call.
type lockCallSite struct {
	callee      *types.Func
	pos         token.Pos
	maxHeldRank int // -1 when nothing is held
	protected   bool
}

// lockFuncInfo is the per-function walk summary.
type lockFuncInfo struct {
	fs           funcScope
	inRaid       bool
	acquires     map[string]bool
	callSites    []lockCallSite
	unprotWrite  token.Pos
	hasUnprotPos bool
}

func runLockCheck(ctx *Context) []Finding {
	var out []Finding
	g := buildCallGraph(ctx.M)
	infos := make(map[*types.Func]*lockFuncInfo)
	for _, pkg := range ctx.M.Sorted {
		inRaid := strings.HasSuffix(pkg.ImportPath, "/raid")
		for _, fs := range functions(pkg) {
			lw := &lockWalker{
				m:     ctx.M,
				pkg:   pkg,
				info:  &lockFuncInfo{fs: fs, inRaid: inRaid, acquires: make(map[string]bool)},
				held:  make(map[string]*lockState),
				graph: g,
			}
			lw.stripeVars = collectStripeVars(pkg.Info, fs.decl.Body)
			ast.Inspect(fs.decl.Body, lw.visit)
			out = append(out, lw.findings...)
			if fs.obj != nil {
				infos[fs.obj] = lw.info
			}
		}
	}
	out = append(out, transitiveOrderFindings(ctx.M, infos)...)
	out = append(out, bracketFindings(ctx.M, infos)...)
	return out
}

type lockWalker struct {
	m          *Module
	pkg        *Package
	info       *lockFuncInfo
	held       map[string]*lockState
	stripeVars map[*types.Var]bool
	graph      *callGraph
	findings   []Finding
}

func (lw *lockWalker) visit(n ast.Node) bool {
	if _, ok := n.(*ast.DeferStmt); ok {
		// Deferred unlocks run at function exit: the lock stays held for the
		// remainder of the walk, which is exactly the deferred semantics.
		return false
	}
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	if class, op, isLock := lw.classifyLockOp(call); isLock {
		lw.handleLockOp(call, class, op)
		return true
	}
	if _, isWrite, isDev := deviceCall(lw.m, lw.pkg.Info, call); isDev {
		if isWrite && lw.info.inRaid && !lw.protected() && !lw.info.hasUnprotPos {
			lw.info.unprotWrite = call.Pos()
			lw.info.hasUnprotPos = true
		}
		return true
	}
	if callee := staticCallee(lw.pkg.Info, call); callee != nil {
		if _, inModule := lw.graph.nodes[callee]; inModule {
			lw.info.callSites = append(lw.info.callSites, lockCallSite{
				callee:      callee,
				pos:         call.Pos(),
				maxHeldRank: lw.maxHeldRank(),
				protected:   lw.protected(),
			})
		}
	}
	return true
}

func (lw *lockWalker) handleLockOp(call *ast.CallExpr, class, op string) {
	switch op {
	case "Lock", "RLock":
		if max := lw.maxHeldRank(); max >= 0 && lockRank(class) < max {
			lw.findings = append(lw.findings, Finding{
				Pos:      lw.m.Position(call.Pos()),
				Analyzer: "lockcheck",
				Message: fmt.Sprintf(
					"lock ordering violation: %s lock (rank %d) acquired while holding a %s lock (rank %d); the discipline is opMu < per-stripe < leaf < failMu",
					lockRankName(lockRank(class)), lockRank(class), lockRankName(max), max),
			})
		}
		st := lw.held[class]
		if st == nil {
			st = &lockState{}
			lw.held[class] = st
		}
		st.count++
		st.exclusive = op == "Lock"
		lw.info.acquires[class] = true
	case "Unlock", "RUnlock":
		if st := lw.held[class]; st != nil {
			st.count--
			if st.count <= 0 {
				delete(lw.held, class)
			}
		}
	}
}

func (lw *lockWalker) maxHeldRank() int {
	max := -1
	for class, st := range lw.held {
		if st.count > 0 && lockRank(class) > max {
			max = lockRank(class)
		}
	}
	return max
}

// protected reports whether the current point satisfies the write bracket:
// a per-stripe lock, or opMu held exclusively.
func (lw *lockWalker) protected() bool {
	if st := lw.held["stripe"]; st != nil && st.count > 0 {
		return true
	}
	st := lw.held["opMu"]
	return st != nil && st.count > 0 && st.exclusive
}

// classifyLockOp recognizes Lock/RLock/Unlock/RUnlock on a sync mutex and
// names its class: the field name (opMu, failMu, mu, ...), with anything
// derived from the per-stripe lock table (lockStripe results, stripeLocks
// elements) normalized to "stripe".
func (lw *lockWalker) classifyLockOp(call *ast.CallExpr) (class, op string, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	selection, selOK := lw.pkg.Info.Selections[sel]
	if !selOK || !isMutexType(deref(selection.Recv())) {
		return "", "", false
	}
	return lw.lockClassOf(sel.X), op, true
}

func (lw *lockWalker) lockClassOf(expr ast.Expr) string {
	name := ""
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.IndexExpr:
		return lw.lockClassOf(e.X)
	case *ast.Ident:
		if v, isVar := lw.pkg.Info.Uses[e].(*types.Var); isVar && lw.stripeVars[v] {
			return "stripe"
		}
		name = e.Name
	case *ast.CallExpr:
		if fn := staticCallee(lw.pkg.Info, e); fn != nil {
			name = fn.Name()
		}
	case *ast.UnaryExpr:
		return lw.lockClassOf(e.X)
	}
	if strings.Contains(strings.ToLower(name), "stripe") {
		return "stripe"
	}
	return name
}

// collectStripeVars finds the locals bound to lockStripe results, so
// `mu := a.lockStripe(si); mu.Lock()` classifies as the stripe class.
func collectStripeVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || !strings.Contains(strings.ToLower(fn.Name()), "stripe") {
			return true
		}
		if id, isIdent := assign.Lhs[0].(*ast.Ident); isIdent {
			if v, isVar := info.Defs[id].(*types.Var); isVar {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// transitiveOrderFindings propagates each function's acquired classes up the
// call graph and reports call sites that may acquire a lower rank than the
// caller already holds.
func transitiveOrderFindings(m *Module, infos map[*types.Func]*lockFuncInfo) []Finding {
	acq := make(map[*types.Func]map[string]bool, len(infos))
	for fn, info := range infos {
		classes := make(map[string]bool, len(info.acquires))
		for c := range info.acquires {
			classes[c] = true
		}
		acq[fn] = classes
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			for _, cs := range info.callSites {
				for c := range acq[cs.callee] {
					if !acq[fn][c] {
						acq[fn][c] = true
						changed = true
					}
				}
			}
		}
	}
	var out []Finding
	for _, info := range infos {
		for _, cs := range info.callSites {
			if cs.maxHeldRank < 0 {
				continue
			}
			worst := -1
			for c := range acq[cs.callee] {
				if r := lockRank(c); worst < 0 || r < worst {
					worst = r
				}
			}
			if worst >= 0 && worst < cs.maxHeldRank {
				out = append(out, Finding{
					Pos:      m.Position(cs.pos),
					Analyzer: "lockcheck",
					Message: fmt.Sprintf(
						"call to %s may acquire a %s lock (rank %d) while holding a %s lock (rank %d)",
						funcDisplayName(cs.callee), lockRankName(worst), worst,
						lockRankName(cs.maxHeldRank), cs.maxHeldRank),
				})
			}
		}
	}
	return out
}

// bracketFindings propagates the unbracketed-device-write obligation through
// unprotected call edges inside internal/raid and reports the reachable
// roots (exported functions and functions nothing in the package calls).
func bracketFindings(m *Module, infos map[*types.Func]*lockFuncInfo) []Finding {
	type witness struct {
		callee *types.Func
		pos    token.Pos
	}
	needs := make(map[*types.Func]witness)
	for fn, info := range infos {
		if info.inRaid && info.hasUnprotPos {
			needs[fn] = witness{pos: info.unprotWrite}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			if !info.inRaid {
				continue
			}
			if _, done := needs[fn]; done {
				continue
			}
			for _, cs := range info.callSites {
				if cs.protected {
					continue
				}
				calleeInfo := infos[cs.callee]
				if calleeInfo == nil || !calleeInfo.inRaid {
					continue
				}
				if _, unmet := needs[cs.callee]; unmet {
					needs[fn] = witness{callee: cs.callee, pos: cs.pos}
					changed = true
					break
				}
			}
		}
	}
	called := make(map[*types.Func]bool)
	for _, info := range infos {
		if !info.inRaid {
			continue
		}
		for _, cs := range info.callSites {
			called[cs.callee] = true
		}
	}
	var out []Finding
	for fn, info := range infos {
		if !info.inRaid {
			continue
		}
		if _, unmet := needs[fn]; !unmet {
			continue
		}
		if !ast.IsExported(fn.Name()) && called[fn] {
			continue
		}
		// Build the witness chain for the message.
		chain := funcDisplayName(fn)
		for cur, hops := fn, 0; hops < 8; hops++ {
			wt := needs[cur]
			if wt.callee == nil {
				chain += fmt.Sprintf(" -> device write at line %d", m.Position(wt.pos).Line)
				break
			}
			chain += " -> " + funcDisplayName(wt.callee)
			cur = wt.callee
		}
		out = append(out, Finding{
			Pos:      m.Position(info.fs.decl.Name.Pos()),
			Analyzer: "lockcheck",
			Message: fmt.Sprintf(
				"device write reachable without a per-stripe lock or exclusive opMu: %s", chain),
		})
	}
	return out
}
