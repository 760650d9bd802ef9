package lint

// Shape tests for the CFG builder the dataflow analyzers share, on synthetic
// type-checked sources: branch edge ordering, loop back edges, terminating
// calls sealing paths, and select-without-default having no fallthrough
// edge. Each asserts blocks and edges directly.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildTestCFG type-checks src and returns the CFG of the named function.
func buildTestCFG(t *testing.T, src, name string) (*ast.FuncDecl, *cfg) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("cfgtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, buildCFG(info, fd.Body)
		}
	}
	t.Fatalf("no function %q in source", name)
	return nil, nil
}

// reachable is the set of blocks a path from the entry reaches.
func reachable(g *cfg) map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{g.entry: true}
	for work := []*cfgBlock{g.entry}; len(work) > 0; {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// blockOf returns the block holding stmt.
func blockOf(t *testing.T, g *cfg, stmt ast.Stmt) *cfgBlock {
	t.Helper()
	for _, b := range g.blocks {
		for _, s := range b.stmts {
			if s == stmt {
				return b
			}
		}
	}
	t.Fatalf("no block holds the statement at %v", stmt.Pos())
	return nil
}

// hasEdge reports whether to is among from's successors.
func hasEdge(from, to *cfgBlock) bool {
	for _, s := range from.succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestCFGBranchEdges(t *testing.T) {
	src := `package cfgtest
func f(b bool) int {
	x := 1
	if b {
		x = 2
	} else {
		x = 3
	}
	return x
}`
	fd, g := buildTestCFG(t, src, "f")
	var cond *cfgBlock
	for _, b := range g.blocks {
		if b.cond != nil {
			if cond != nil {
				t.Fatalf("more than one conditional block in a single if")
			}
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no conditional block built for the if")
	}
	// succs[0] is the true branch, succs[1] the false branch — the contract
	// edge filters (poolcheck's nil-check narrowing) rely on.
	if len(cond.succs) != 2 {
		t.Fatalf("conditional block has %d successors, want 2", len(cond.succs))
	}
	ifs := fd.Body.List[1].(*ast.IfStmt)
	if then := blockOf(t, g, ifs.Body.List[0]); cond.succs[0] != then {
		t.Errorf("succs[0] is block %d, want the then block %d", cond.succs[0].id, then.id)
	}
	if els := blockOf(t, g, ifs.Else.(*ast.BlockStmt).List[0]); cond.succs[1] != els {
		t.Errorf("succs[1] is block %d, want the else block %d", cond.succs[1].id, els.id)
	}
	if len(g.backEdges) != 0 {
		t.Errorf("if/else produced %d back edges, want 0", len(g.backEdges))
	}
	// The body ends in a return: its block has the one edge to exit, and the
	// syntactic fall-off block exists but is unreachable, which is what the
	// analyzers' reached() guard tests.
	ret := blockOf(t, g, fd.Body.List[2])
	if len(ret.succs) != 1 || ret.succs[0] != g.exit {
		t.Errorf("return block's successors = %d, want exactly the exit", len(ret.succs))
	}
	live := reachable(g)
	if g.fallsOff != nil && live[g.fallsOff] {
		t.Errorf("function ending in return must not reach the fall-off block")
	}
	if !live[g.exit] {
		t.Errorf("exit should be reachable through the return")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	src := `package cfgtest
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	fd, g := buildTestCFG(t, src, "f")
	if len(g.backEdges) != 1 {
		t.Fatalf("for loop produced %d back edges, want 1", len(g.backEdges))
	}
	e := g.backEdges[0]
	if e.loop == nil {
		t.Fatal("back edge carries no loop")
	}
	// The loop body's statements are positionally inside the loop; the
	// enclosing function's first statement is not.
	var bodyPos, prePos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fs, ok := n.(*ast.ForStmt); ok {
			bodyPos = fs.Body.List[0].Pos()
		}
		return true
	})
	prePos = fd.Body.List[0].Pos()
	if !e.loop.contains(bodyPos) {
		t.Errorf("loop should contain its body statement")
	}
	if e.loop.contains(prePos) {
		t.Errorf("loop should not contain the statement before it")
	}
}

func TestCFGTerminatingCallSealsPath(t *testing.T) {
	src := `package cfgtest
func f(x int) {
	_ = x
	panic("always")
}`
	fd, g := buildTestCFG(t, src, "f")
	if b := blockOf(t, g, fd.Body.List[1]); len(b.succs) != 0 {
		t.Errorf("the panic's block has %d successors, want 0", len(b.succs))
	}
	if g.fallsOff != nil && reachable(g)[g.fallsOff] {
		t.Errorf("a body ending in panic must not reach the fall-off block")
	}
}

func TestCFGSelectHasNoFallthroughEdge(t *testing.T) {
	// A select without default always runs one clause: no head→after edge,
	// unlike a switch without default, which may run none.
	src := `package cfgtest
func f(a, b chan int) int {
	x := 1
	select {
	case v := <-a:
		x = v
	case v := <-b:
		x = v + 1
	}
	return x
}
func g(y int) int {
	x := 1
	switch y {
	case 1:
		x = 2
	case 2:
		x = 3
	}
	return x
}`
	for _, tc := range []struct {
		name      string
		fallsOver bool
	}{{"f", false}, {"g", true}} {
		fd, g := buildTestCFG(t, src, tc.name)
		head := blockOf(t, g, fd.Body.List[0])
		after := blockOf(t, g, fd.Body.List[2])
		if got := hasEdge(head, after); got != tc.fallsOver {
			t.Errorf("%s: head→after edge = %v, want %v", tc.name, got, tc.fallsOver)
		}
		// Every clause is a successor of the head and flows into after.
		clauses := 0
		for _, c := range head.succs {
			if c != after {
				clauses++
				if !hasEdge(c, after) {
					t.Errorf("%s: clause block %d does not flow into the statement after", tc.name, c.id)
				}
			}
		}
		if clauses != 2 {
			t.Errorf("%s: head fans out to %d clauses, want 2", tc.name, clauses)
		}
	}
}
