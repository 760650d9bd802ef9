package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// gocheck enforces goroutine and admission-slot hygiene in the concurrent
// layers (blockserve, blockdev, raid, erasure) — the packages where an
// unjoined goroutine outlives Serve's shutdown or a leaked semaphore slot
// wedges the inflight limiter. Two rules, both on the shared CFG:
//
//   - Join/drain: every `go` statement needs a visible lifecycle. Either the
//     spawned body calls Done on a sync.WaitGroup whose Add dominates the
//     spawn (a must-dataflow: the Add must appear on every path reaching the
//     `go`, or Wait can return before the goroutine starts), or the body
//     sends on a channel the spawning function receives from (the registered
//     drain path of the collect-results pattern). The body is the literal's,
//     or the direct callee's for `go x.method()` — one level deep, matching
//     how the codebase writes its workers.
//
//   - Semaphore balance: a send on a `chan struct{}` acquires an admission
//     slot; every path from the acquire to the unit's exit (and around every
//     loop iteration) must release it — by receiving in the same function,
//     by a deferred receive, or by handing the slot to a spawned goroutine
//     that receives it. The state is the set of outstanding acquisitions
//     (union join); per-channel findings are deduplicated to the earliest
//     acquisition site, which is where a suppression goes when the release
//     legitimately lives in another function (say, a completion side that
//     releases what a submission side acquired).
var goCheckAnalyzer = &Analyzer{
	Name: "gocheck",
	Doc:  "goroutines need a join or drain path; semaphore slots must be released on every path",
	Run:  runGoCheck,
}

// goCheckScoped gates the analysis to the concurrent layers.
func goCheckScoped(importPath string) bool {
	for _, suffix := range []string{"/blockserve", "/blockdev", "/raid", "/erasure"} {
		if strings.HasSuffix(importPath, suffix) {
			return true
		}
	}
	return false
}

func runGoCheck(ctx *Context) []Finding {
	c := &goChecker{m: ctx.M}
	for _, pkg := range ctx.M.Sorted {
		if !goCheckScoped(pkg.ImportPath) {
			continue
		}
		for _, fs := range functions(pkg) {
			for _, unit := range funcUnits(fs) {
				c.checkUnit(pkg, unit)
			}
		}
	}
	return c.findings
}

type goChecker struct {
	m        *Module
	graph    *callGraph // lazy: only built when a `go callee()` needs a body
	findings []Finding
}

func (c *goChecker) report(pos token.Pos, msg string) {
	c.findings = append(c.findings, Finding{Pos: c.m.Position(pos), Analyzer: "gocheck", Message: msg})
}

func (c *goChecker) checkUnit(pkg *Package, unit flowUnit) {
	g := buildCFG(pkg.Info, unit.body)
	c.checkJoins(pkg, unit, g)
	c.checkSemaphores(pkg, unit, g)
}

// ---- Rule 1: every go statement has a join or drain path ----

// addSet is the must-lattice: WaitGroups Added on every path so far. The
// solver only joins states that actually flow, so intersection over incoming
// edges is exactly "dominated by an Add".
type addSet map[*types.Var]bool

func (s addSet) clone() addSet {
	out := make(addSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

func addJoin(dst, src addSet) addSet {
	for v := range dst {
		if !src[v] {
			delete(dst, v)
		}
	}
	return dst
}

func addEqual(a, b addSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func (c *goChecker) checkJoins(pkg *Package, unit flowUnit, g *cfg) {
	transfer := func(b *cfgBlock, st addSet) addSet {
		for _, stmt := range b.stmts {
			c.addTransfer(pkg, stmt, st, nil)
		}
		return st
	}
	res := solveFlow(g, flowSpec[addSet]{
		entry:    make(addSet),
		clone:    addSet.clone,
		join:     addJoin,
		equal:    addEqual,
		transfer: transfer,
	})
	for _, b := range g.blocks {
		if !res.reached(b) {
			continue
		}
		st := res.in[b].clone()
		for _, stmt := range b.stmts {
			c.addTransfer(pkg, stmt, st, unit.body)
		}
	}
}

// addTransfer replays one statement: WaitGroup.Add calls grow the must-set,
// and (when checking) each go statement is judged against the current set.
func (c *goChecker) addTransfer(pkg *Package, stmt ast.Stmt, st addSet, checkIn *ast.BlockStmt) {
	inspectShallow(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if wg := waitGroupMethod(pkg.Info, call, "Add"); wg != nil {
				st[wg] = true
			}
		}
		return true
	})
	if gs, ok := stmt.(*ast.GoStmt); ok && checkIn != nil {
		c.checkGoStmt(pkg, checkIn, gs, st)
	}
}

// waitGroupMethod matches a sync.WaitGroup method call by name, resolving
// the receiver to the WaitGroup's variable or field identity.
func waitGroupMethod(info *types.Info, call *ast.CallExpr, name string) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || !typeIs(selection.Recv(), "sync", "WaitGroup") {
		return nil
	}
	return refVar(info, sel.X)
}

// checkGoStmt applies the join/drain rule to one spawn.
func (c *goChecker) checkGoStmt(pkg *Package, enclosing *ast.BlockStmt, gs *ast.GoStmt, added addSet) {
	body := c.spawnedBody(pkg, gs)
	if body != nil {
		var doneVars []*types.Var
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if wg := waitGroupMethod(pkg.Info, call, "Done"); wg != nil {
					doneVars = append(doneVars, wg)
				}
			}
			return true
		})
		for _, wg := range doneVars {
			if added[wg] {
				return // joined: Add dominates the spawn, body Dones it
			}
		}
		if len(doneVars) > 0 {
			c.report(gs.Pos(), fmt.Sprintf(
				"goroutine calls %s.Done but no matching Add dominates this spawn — Wait can return before the goroutine runs",
				doneVars[0].Name()))
			return
		}
		if c.drains(pkg, enclosing, gs, body) {
			return
		}
	}
	c.report(gs.Pos(),
		"goroutine has no join or drain path: nothing Adds a WaitGroup its body Dones, and it sends on no channel this function receives from")
}

// spawnedBody resolves what the goroutine will run: the literal's body, or
// the direct callee's declaration (one level deep).
func (c *goChecker) spawnedBody(pkg *Package, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	callee := staticCallee(pkg.Info, gs.Call)
	if callee == nil {
		return nil
	}
	if c.graph == nil {
		c.graph = buildCallGraph(c.m)
	}
	if fs, ok := c.graph.nodes[callee]; ok {
		return fs.decl.Body
	}
	return nil
}

// drains reports whether the spawned body sends on a channel the enclosing
// function receives from (or ranges over) — the collect-results pattern.
func (c *goChecker) drains(pkg *Package, enclosing *ast.BlockStmt, gs *ast.GoStmt, body *ast.BlockStmt) bool {
	sent := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			if v := refVar(pkg.Info, send.Chan); v != nil {
				sent[v] = true
			}
		}
		return true
	})
	if len(sent) == 0 {
		return false
	}
	drained := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if drained {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if n == gs {
				return false // the spawn itself is not its own drain
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && sent[refVar(pkg.Info, n.X)] {
				drained = true
			}
		case *ast.RangeStmt:
			if sent[refVar(pkg.Info, n.X)] {
				drained = true
			}
		}
		return true
	})
	return drained
}

// ---- Rule 2: semaphore slots are released on every path ----

// semHold is one outstanding chan-struct{} acquisition, canonical per site.
type semHold struct {
	ch  *types.Var
	pos token.Pos
}

type semState map[token.Pos]*semHold

func (s semState) clone() semState {
	out := make(semState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func semJoin(dst, src semState) semState {
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func semEqual(a, b semState) bool {
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

func (c *goChecker) checkSemaphores(pkg *Package, unit flowUnit, g *cfg) {
	released := unitReleasedChans(pkg.Info, unit.body)
	holdAt := make(map[token.Pos]*semHold)
	transfer := func(b *cfgBlock, st semState) semState {
		for _, stmt := range b.stmts {
			if send, ok := stmt.(*ast.SendStmt); ok {
				if ch := structChanVar(pkg.Info, send.Chan); ch != nil && !released[ch] {
					hold := holdAt[send.Pos()]
					if hold == nil {
						hold = &semHold{ch: ch, pos: send.Pos()}
						holdAt[send.Pos()] = hold
					}
					st[hold.pos] = hold
				}
			}
			for _, ch := range stmtReceives(pkg.Info, stmt) {
				for k, v := range st {
					if v.ch == ch {
						delete(st, k)
					}
				}
			}
		}
		return st
	}
	res := solveFlow(g, flowSpec[semState]{
		entry:    make(semState),
		clone:    semState.clone,
		join:     semJoin,
		equal:    semEqual,
		transfer: transfer,
		edge: func(from, to *cfgBlock, branch int, back *cfgLoop, st semState) semState {
			if back != nil {
				for k, v := range st {
					if back.contains(v.pos) {
						delete(st, k)
					}
				}
			}
			return st
		},
	})

	// One finding per channel per unit, anchored at the earliest acquisition
	// — that line (or the one above it) is where a justified suppression for
	// an intentional cross-function hand-off belongs.
	type verdict struct {
		pos  token.Pos
		loop bool
	}
	leaks := make(map[*types.Var]*verdict)
	note := func(h *semHold, loop bool) {
		v := leaks[h.ch]
		if v == nil {
			v = &verdict{pos: h.pos, loop: loop}
			leaks[h.ch] = v
			return
		}
		v.pos = firstAcquirePos(v.pos, h.pos)
		v.loop = v.loop || loop
	}
	for _, e := range g.backEdges {
		if !res.reached(e.from) {
			continue
		}
		for _, h := range res.out[e.from] {
			if e.loop.contains(h.pos) {
				note(h, true)
			}
		}
	}
	if res.reached(g.exit) {
		for _, h := range res.in[g.exit] {
			note(h, false)
		}
	}
	var chans []*types.Var
	for ch := range leaks {
		chans = append(chans, ch)
	}
	// Deterministic report order across map iteration.
	for i := range chans {
		for j := i + 1; j < len(chans); j++ {
			if leaks[chans[j]].pos < leaks[chans[i]].pos {
				chans[i], chans[j] = chans[j], chans[i]
			}
		}
	}
	for _, ch := range chans {
		v := leaks[ch]
		if v.loop {
			c.report(v.pos, fmt.Sprintf(
				"semaphore slot on %s is acquired each loop iteration without a release on the iteration path", ch.Name()))
		} else {
			c.report(v.pos, fmt.Sprintf(
				"semaphore slot on %s is not released on every path to return — receive it back, defer the receive, or hand it to a releasing goroutine", ch.Name()))
		}
	}
}

// structChanVar resolves e to a chan struct{} variable — the codebase's
// counting-semaphore convention — or nil for any other channel or shape.
func structChanVar(info *types.Info, e ast.Expr) *types.Var {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	ct, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return nil
	}
	st, ok := ct.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() != 0 {
		return nil
	}
	return refVar(info, e)
}

// stmtReceives collects the chan-struct{} variables a statement receives
// from, not looking into nested function literals.
func stmtReceives(info *types.Info, stmt ast.Stmt) []*types.Var {
	var out []*types.Var
	inspectShallow(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if ch := structChanVar(info, n.X); ch != nil {
					out = append(out, ch)
				}
			}
		case *ast.RangeStmt:
			if ch := structChanVar(info, n.X); ch != nil {
				out = append(out, ch)
			}
		}
		return true
	})
	return out
}

// unitReleasedChans precomputes the channels this unit releases through a
// deferred receive or a spawned goroutine's receive: those discharge the
// obligation for the whole unit (defers run on every exit; the goroutine
// owns the slot after the hand-off), so their sends never become holds.
func unitReleasedChans(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	released := make(map[*types.Var]bool)
	collect := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				if ch := structChanVar(info, u.X); ch != nil {
					released[ch] = true
				}
			}
			return true
		})
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				collect(lit.Body)
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				collect(lit.Body)
			}
		}
		return true
	})
	return released
}
