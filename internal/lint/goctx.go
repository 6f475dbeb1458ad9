package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the dataflow layer beneath the parallel-contract
// analyzers (sharedslot, mergeorder, rngshare, and the goroutine half of
// floatsum): a goroutine-context tracker plus the closure-capture and
// slot-index queries those analyzers share. Everything here is
// function-local or package-local — no cross-package summaries — which
// keeps the pass cheap and its findings explainable at the flagged line.
//
// A goroutine context is a body of code that may execute on a spawned
// goroutine:
//
//   - the function literal of a `go func(){...}()` statement;
//   - a named function or method launched directly by a go statement
//     (`go p.worker(w, c)`, a worker-loop method);
//   - a worker-pool task closure: a function literal that flows into a
//     parameter some callee executes on a goroutine (the tasks slice of
//     a `runTasks(workers, tasks)` runner, the shape the testdata
//     corpora exercise). The flow is tracked
//     function-locally: literals appearing in the argument expression
//     itself, plus literals stored — by assignment or append, possibly
//     wrapped in composite literals — into a local variable that is
//     later passed at such a parameter position.
//
// "Executed on a goroutine" is itself inferred per package: parameter i
// of F is goroutine-executed when F's body calls a value rooted at that
// parameter inside goroutine-reachable code (tasks[i].fn() inside the
// runner's worker literal), or passes the parameter on to another
// function's goroutine-executed parameter. The set is closed by
// fixed-point iteration over the package, so wrappers around a pool
// runner inherit its contract.
type goContext struct {
	lit  *ast.FuncLit  // closure contexts
	decl *ast.FuncDecl // named contexts launched by a go statement

	// site is where the goroutine (or the closure that will run on one)
	// is created. loop is the innermost for/range statement enclosing
	// site within the same function: its per-iteration variables
	// (including Go ≥1.22 loop variables) are fresh for every instance
	// of the context.
	site ast.Node
	loop ast.Node

	// multi reports that more than one instance of the context may run
	// concurrently: the creation site sits inside a loop, or — for named
	// contexts — the function is launched from more than one go
	// statement.
	multi bool

	// recvShared is the receiver object of a named context whose launch
	// sites pass a receiver that is not per-instance fresh: every
	// goroutine shares the same receiver value, so it does not count as
	// context-owned state.
	recvShared types.Object

	// kind names the context in diagnostics: "goroutine" for go
	// statements, "task closure" for pool-fed literals.
	kind string
}

// body returns the block that runs on the goroutine.
func (c *goContext) body() *ast.BlockStmt {
	if c.lit != nil {
		return c.lit.Body
	}
	return c.decl.Body
}

// scope is the node whose source range bounds the context's own
// declarations (parameters included).
func (c *goContext) scope() ast.Node {
	if c.lit != nil {
		return c.lit
	}
	return c.decl
}

// owns reports whether obj is private to each instance of the context:
// a parameter or a local of the context body. A shared receiver is
// explicitly not owned.
func (c *goContext) owns(obj types.Object) bool {
	if obj == nil || !declaredWithin(obj, c.scope()) {
		return false
	}
	if c.recvShared != nil && obj == c.recvShared {
		return false
	}
	return true
}

// fresh reports whether obj names a distinct variable for every
// instance of the context: context-owned, or declared per-iteration
// inside the innermost loop enclosing the creation site (the
// `j, sh := j, sh` redeclarations and Go ≥1.22 loop variables).
func (c *goContext) fresh(obj types.Object) bool {
	if c.owns(obj) {
		return true
	}
	return obj != nil && c.lit != nil && c.loop != nil && declaredWithin(obj, c.loop)
}

// goCtxIndex is the package-wide context set, shared query surface for
// the contract analyzers.
type goCtxIndex struct {
	pass  *Pass
	ctxs  []*goContext
	byLit map[*ast.FuncLit]*goContext
}

// walkBody walks a context's body like inspectWithStack, but does not
// descend into nested function literals that are goroutine contexts of
// their own: their writes are judged against their own capture
// boundary. Plain nested literals (same-goroutine helpers) are walked
// through, with the enclosing context as the boundary.
func (idx *goCtxIndex) walkBody(c *goContext, fn func(n ast.Node, stack []ast.Node) bool) {
	inspectWithStack(c.body(), func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && idx.byLit[lit] != nil {
			return false
		}
		return fn(n, stack)
	})
}

// paramRef locates one parameter: its function and position.
type paramRef struct {
	fn  *types.Func
	idx int
}

// goroutineContexts builds the package's goroutine-context index.
func goroutineContexts(pass *Pass) *goCtxIndex {
	idx := &goCtxIndex{pass: pass, byLit: make(map[*ast.FuncLit]*goContext)}

	// Site survey: the innermost enclosing loop of every function
	// literal and go statement, and the package's declared functions
	// with their parameter objects.
	litLoop := make(map[*ast.FuncLit]ast.Node)
	goLoop := make(map[*ast.GoStmt]ast.Node)
	declOf := make(map[*types.Func]*ast.FuncDecl)
	params := make(map[types.Object]paramRef)
	var declOrder []*types.Func
	for _, file := range pass.Files {
		inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				litLoop[x] = innermostLoop(stack)
			case *ast.GoStmt:
				goLoop[x] = innermostLoop(stack)
			case *ast.FuncDecl:
				fn, ok := pass.Info.Defs[x.Name].(*types.Func)
				if !ok || x.Body == nil {
					return true
				}
				declOf[fn] = x
				declOrder = append(declOrder, fn)
				i := 0
				for _, field := range x.Type.Params.List {
					for _, name := range field.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							params[obj] = paramRef{fn, i}
						}
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
			}
			return true
		})
	}

	// Fixed point: which parameters are goroutine-executed.
	goExec := make(map[*types.Func]map[int]bool)
	mark := func(fn *types.Func, i int, changed *bool) {
		if goExec[fn] == nil {
			goExec[fn] = make(map[int]bool)
		}
		if !goExec[fn][i] {
			goExec[fn][i] = true
			*changed = true
		}
	}
	for {
		changed := false
		for _, fn := range declOrder {
			decl := declOf[fn]
			// Goroutine-reachable regions within fn: go-statement
			// literals (and direct `go p()` calls), plus task literals
			// that flow into goroutine-executed parameters of callees.
			var regions []ast.Node
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					regions = append(regions, lit.Body)
				} else if pr, ok := params[baseObject(pass.Info, g.Call.Fun)]; ok && pr.fn == fn {
					mark(fn, pr.idx, &changed)
				}
				return true
			})
			for _, lit := range taskLits(pass, decl.Body, goExec) {
				regions = append(regions, lit.Body)
			}
			for _, region := range regions {
				ast.Inspect(region, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if pr, ok := params[baseObject(pass.Info, call.Fun)]; ok && pr.fn == fn {
						mark(fn, pr.idx, &changed)
					}
					return true
				})
			}
			// Propagation: fn passes its own parameter to a callee's
			// goroutine-executed position.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				positions := goExec[callee]
				if len(positions) == 0 {
					return true
				}
				for i, arg := range call.Args {
					if !positions[paramPos(callee, i)] {
						continue
					}
					if pr, ok := params[baseObject(pass.Info, arg)]; ok && pr.fn == fn {
						mark(fn, pr.idx, &changed)
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}

	add := func(c *goContext) {
		if c.lit != nil {
			if idx.byLit[c.lit] != nil {
				return
			}
			idx.byLit[c.lit] = c
		}
		idx.ctxs = append(idx.ctxs, c)
	}

	// Contexts, pass 1: go statements.
	type launch struct {
		site *ast.GoStmt
		loop ast.Node
		recv ast.Expr
	}
	namedLaunches := make(map[*types.Func][]launch)
	var namedOrder []*types.Func
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				add(&goContext{
					lit: lit, site: g, loop: goLoop[g],
					multi: goLoop[g] != nil, kind: "goroutine",
				})
				return true
			}
			fn := calleeFunc(pass.Info, g.Call)
			if fn == nil || declOf[fn] == nil {
				return true
			}
			var recv ast.Expr
			if _, r := methodCall(pass.Info, g.Call); r != nil {
				recv = r
			}
			if _, seen := namedLaunches[fn]; !seen {
				namedOrder = append(namedOrder, fn)
			}
			namedLaunches[fn] = append(namedLaunches[fn], launch{g, goLoop[g], recv})
			return true
		})
	}

	// Contexts, pass 2: pool-fed task closures, per file so literals in
	// any function (tests included) are found.
	for _, file := range pass.Files {
		for _, lit := range taskLits(pass, file, goExec) {
			add(&goContext{
				lit: lit, site: lit, loop: litLoop[lit],
				multi: litLoop[lit] != nil, kind: "task closure",
			})
		}
	}

	// Contexts, pass 3: named functions launched by go statements.
	for _, fn := range namedOrder {
		launches := namedLaunches[fn]
		decl := declOf[fn]
		c := &goContext{decl: decl, site: launches[0].site, kind: "goroutine"}
		c.multi = len(launches) > 1
		recvFresh := true
		for _, l := range launches {
			if l.loop != nil {
				c.multi = true
			}
			if l.recv != nil && !exprVarsWithin(pass, l.recv, l.loop) {
				recvFresh = false
			}
		}
		if !recvFresh && decl.Recv != nil {
			for _, field := range decl.Recv.List {
				for _, name := range field.Names {
					c.recvShared = pass.Info.Defs[name]
				}
			}
		}
		add(c)
	}

	sort.Slice(idx.ctxs, func(i, j int) bool {
		return idx.ctxs[i].scope().Pos() < idx.ctxs[j].scope().Pos()
	})
	return idx
}

// innermostLoop returns the nearest for/range ancestor of the node on
// top of stack that lies within the same function, or nil.
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// paramPos maps a call argument position to the callee's parameter
// index, folding variadic tails onto the last parameter.
func paramPos(fn *types.Func, arg int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return arg
	}
	if n := sig.Params().Len(); sig.Variadic() && arg >= n-1 {
		return n - 1
	}
	return arg
}

// taskLits finds function literals under root that flow into
// goroutine-executed parameter positions: literals inside the argument
// expressions themselves, plus literals stored into a local variable
// that is passed at such a position anywhere in root.
func taskLits(pass *Pass, root ast.Node, goExec map[*types.Func]map[int]bool) []*ast.FuncLit {
	var lits []*ast.FuncLit
	flows := make(map[types.Object]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		positions := goExec[callee]
		if len(positions) == 0 {
			return true
		}
		for i, arg := range call.Args {
			if !positions[paramPos(callee, i)] {
				continue
			}
			lits = append(lits, topFuncLits(arg)...)
			if obj := baseObject(pass.Info, arg); obj != nil {
				flows[obj] = true
			}
		}
		return true
	})
	if len(flows) > 0 {
		ast.Inspect(root, func(n ast.Node) bool {
			var lhs []ast.Expr
			var rhs []ast.Expr
			switch s := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = s.Lhs, s.Rhs
			case *ast.ValueSpec:
				for _, name := range s.Names {
					lhs = append(lhs, name)
				}
				rhs = s.Values
			default:
				return true
			}
			into := false
			for _, l := range lhs {
				if flows[baseObject(pass.Info, l)] {
					into = true
				}
			}
			if !into {
				return true
			}
			for _, r := range rhs {
				lits = append(lits, topFuncLits(r)...)
			}
			return true
		})
	}
	return lits
}

// topFuncLits collects the function literals in e that are not nested
// inside another literal of e — the values that flow, not their inner
// helpers.
func topFuncLits(e ast.Expr) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// ---- capture- and slot-classification queries ----

// exprVarsFresh reports whether every variable referenced by e is fresh
// per instance of the context — the test for a task-derived slot index.
func exprVarsFresh(pass *Pass, c *goContext, e ast.Expr) bool {
	fresh := true
	sawVar := false
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			// A field or method selection: only the operand's variables
			// matter. Package-qualified references (pkg.V) stay checked.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); !ok || !isPkgName(pass.Info, id) {
				skip[x.Sel] = true
			}
		case *ast.Ident:
			if skip[x] {
				return true
			}
			if v, ok := pass.Info.ObjectOf(x).(*types.Var); ok {
				sawVar = true
				if !c.fresh(v) {
					fresh = false
				}
			}
		}
		return fresh
	})
	return fresh && sawVar
}

// exprVarsWithin reports whether every variable referenced by e is
// declared inside node; with a nil node it reports false unless e
// references no variables at all (then there is nothing fresh about it
// and the caller treats it as shared, so return false too for clarity).
func exprVarsWithin(pass *Pass, e ast.Expr, node ast.Node) bool {
	if node == nil {
		return false
	}
	ok := true
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, isIdent := ast.Unparen(x.X).(*ast.Ident); !isIdent || !isPkgName(pass.Info, id) {
				skip[x.Sel] = true
			}
		case *ast.Ident:
			if skip[x] {
				return true
			}
			if v, isVar := pass.Info.ObjectOf(x).(*types.Var); isVar && !declaredWithin(v, node) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// A writeStep is one layer of an lvalue's access path, root outward:
// field selections, index operations (classified by how they
// distinguish slots), and pointer dereferences.
type stepKind int

const (
	stepField       stepKind = iota // .name
	stepIndexTask                   // [i] with every variable fresh per instance
	stepIndexConst                  // [k] with k a compile-time constant
	stepIndexShared                 // [k] with k shared across instances
	stepIndexMap                    // m[k] on a map — never a safe concurrent slot
	stepDeref                       // *p
)

type writeStep struct {
	kind stepKind
	name string // field name, or the constant's exact value
}

// lvalueSteps decomposes an lvalue into its root object and access
// path. A nil root means the expression does not ground in a plain
// identifier (function-call results and the like).
func lvalueSteps(pass *Pass, c *goContext, e ast.Expr) (types.Object, []writeStep) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.ObjectOf(x), nil
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && isPkgName(pass.Info, id) {
			return pass.Info.ObjectOf(x.Sel), nil
		}
		root, steps := lvalueSteps(pass, c, x.X)
		return root, append(steps, writeStep{stepField, x.Sel.Name})
	case *ast.IndexExpr:
		root, steps := lvalueSteps(pass, c, x.X)
		step := writeStep{stepIndexShared, ""}
		if t := pass.Info.TypeOf(x.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return root, append(steps, writeStep{stepIndexMap, ""})
			}
		}
		if tv, ok := pass.Info.Types[x.Index]; ok && tv.Value != nil {
			step = writeStep{stepIndexConst, tv.Value.ExactString()}
		} else if exprVarsFresh(pass, c, x.Index) {
			step = writeStep{stepIndexTask, ""}
		}
		return root, append(steps, step)
	case *ast.StarExpr:
		root, steps := lvalueSteps(pass, c, x.X)
		return root, append(steps, writeStep{stepDeref, ""})
	}
	return nil, nil
}

func hasStep(steps []writeStep, kind stepKind) bool {
	for _, s := range steps {
		if s.kind == kind {
			return true
		}
	}
	return false
}

// hasIndexStep reports whether the path indexes at all (map included).
func hasIndexStep(steps []writeStep) bool {
	for _, s := range steps {
		switch s.kind {
		case stepIndexTask, stepIndexConst, stepIndexShared, stepIndexMap:
			return true
		}
	}
	return false
}

// stepsMayOverlap reports whether two access paths on the same root can
// reach the same memory. Distinct field names and distinct constant
// indices are provably disjoint; everything else is assumed to collide,
// and a path that is a prefix of another covers it.
func stepsMayOverlap(a, b []writeStep) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if x.kind == stepField && y.kind == stepField && x.name != y.name {
			return false
		}
		if x.kind == stepIndexConst && y.kind == stepIndexConst && x.name != y.name {
			return false
		}
	}
	return true
}
