package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cachecheck pins the element cache's coherence contract (PR 3): a stale
// cached cell silently corrupts later degraded reads, because reconstruction
// XORs whatever the cache returns. The discipline that keeps the argument
// local is: every operation that writes a device must, somewhere on the same
// operation, either write the new value through to the cache or invalidate
// the affected entries.
//
// The check computes, over the internal/raid call graph, which functions can
// reach a device write, and which can reach a cache write-through or
// invalidation (the Array's cache* helpers and the cache package's
// Put/Invalidate methods). A root — an exported function, or one nothing in
// the package calls — that reaches a write but no cache touch has no
// coherence story and is reported. Pure helpers (elemIO, writeColumn,
// storeStripe) stay silent as long as every root above them touches the
// cache; pre-cache paths are suppressed with lint:ignore cachecheck and a
// justification.
var cacheCheckAnalyzer = &Analyzer{
	Name: "cachecheck",
	Doc:  "device-writing raid operations must write through or invalidate the cache",
	Run:  runCacheCheck,
}

func runCacheCheck(ctx *Context) []Finding {
	g := buildCallGraph(ctx.M)

	type ccInfo struct {
		fs         funcScope
		inRaid     bool
		writePos   token.Pos
		hasWrite   bool
		touchCache bool
		callees    []*types.Func
		callPos    map[*types.Func]token.Pos
	}
	infos := make(map[*types.Func]*ccInfo)
	for _, pkg := range ctx.M.Sorted {
		inRaid := strings.HasSuffix(pkg.ImportPath, "/raid")
		for _, fs := range functions(pkg) {
			if fs.obj == nil {
				continue
			}
			info := &ccInfo{
				fs:      fs,
				inRaid:  inRaid,
				callees: g.callees[fs.obj],
				callPos: make(map[*types.Func]token.Pos),
			}
			ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, isWrite, isDev := deviceCall(ctx.M, pkg.Info, call); isDev && isWrite {
					if !info.hasWrite {
						info.writePos = call.Pos()
						info.hasWrite = true
					}
					return true
				}
				if isCacheTouch(ctx.M, pkg.Info, call) {
					info.touchCache = true
				}
				if callee := staticCallee(pkg.Info, call); callee != nil {
					if _, seen := info.callPos[callee]; !seen {
						info.callPos[callee] = call.Pos()
					}
				}
				return true
			})
			infos[fs.obj] = info
		}
	}

	// reaches-cache-touch, transitively (through any module package — the
	// cache methods themselves live outside raid).
	touches := make(map[*types.Func]bool)
	for fn, info := range infos {
		if info.touchCache {
			touches[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			if touches[fn] {
				continue
			}
			for _, callee := range info.callees {
				if touches[callee] {
					touches[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// reaches-device-write with a witness chain, restricted to raid.
	type witness struct {
		callee *types.Func
		pos    token.Pos
	}
	writes := make(map[*types.Func]witness)
	for fn, info := range infos {
		if info.inRaid && info.hasWrite {
			writes[fn] = witness{pos: info.writePos}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			if !info.inRaid {
				continue
			}
			if _, done := writes[fn]; done {
				continue
			}
			for _, callee := range info.callees {
				ci := infos[callee]
				if ci == nil || !ci.inRaid {
					continue
				}
				if _, w := writes[callee]; w {
					writes[fn] = witness{callee: callee, pos: info.callPos[callee]}
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
		for _, callee := range info.callees {
			called[callee] = true
		}
	}

	var out []Finding
	for fn, info := range infos {
		if !info.inRaid {
			continue
		}
		if _, w := writes[fn]; !w || touches[fn] {
			continue
		}
		if !ast.IsExported(fn.Name()) && called[fn] {
			continue
		}
		chain := funcDisplayName(fn)
		for cur, hops := fn, 0; hops < 8; hops++ {
			wt := writes[cur]
			if wt.callee == nil {
				chain += fmt.Sprintf(" -> device write at line %d", ctx.M.Position(wt.pos).Line)
				break
			}
			chain += " -> " + funcDisplayName(wt.callee)
			cur = wt.callee
		}
		out = append(out, Finding{
			Pos:      ctx.M.Position(info.fs.decl.Name.Pos()),
			Analyzer: "cachecheck",
			Message: fmt.Sprintf(
				"writes the device but never writes through or invalidates the element cache: %s", chain),
		})
	}
	return out
}

// isCacheTouch recognizes coherence-bearing cache operations: the Array's
// cache* helpers in raid (cachePut, cachePutStripe, cacheInvalidate,
// cacheInvalidateStripe, cacheInvalidateColumn, cacheFill) and the cache
// package's own write-through/invalidation methods.
func isCacheTouch(m *Module, info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	if m.inModule(fn.Pkg().Path()) && strings.HasPrefix(name, "cache") {
		return true
	}
	if strings.HasSuffix(fn.Pkg().Path(), "/cache") {
		return name == "Put" || name == "Clear" || strings.HasPrefix(name, "Invalidate")
	}
	return false
}
