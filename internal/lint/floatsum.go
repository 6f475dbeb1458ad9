package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatSum flags floating-point reductions whose accumulation order is
// scheduler-dependent:
//
//   - a += / -= / *= / /= (or ++/--) on a float inside a go statement's
//     body whose target is rooted outside that body: even when a mutex
//     makes the update race-free, the *order* of the additions follows
//     the scheduler, and float addition does not commute in rounding.
//     The body is the go statement's function literal, or the
//     same-package function or method it launches by name, whose
//     receiver counts as outside. A per-goroutine slot is exempt: some
//     index on the target's path reads only the body's own variables or
//     the enclosing loop's per-iteration variables, or is a constant on
//     a go statement inside no loop (one goroutine owning one fixed
//     slot). partial[0] += v from goroutines launched in a loop is one
//     shared accumulator wearing slot syntax;
//   - float accumulation inside `for range ch` over a channel of
//     floats: with more than one sender the receive order, and so the
//     sum, is scheduler-dependent.
//
// The deterministic pattern is per-goroutine slots combined in a fixed
// order after the goroutines join. Code a body calls is not followed;
// gostmt's review of every go statement covers it.
var FloatSum = &Analyzer{
	Name: "floatsum",
	Doc:  "floating-point reduction in scheduler-dependent order (goroutine-shared accumulator, aliased slot, or channel-fed sum)",
	Run:  runFloatSum,
}

func runFloatSum(pass *Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	// A body launched by several go statements is walked once per
	// launch; report each accumulation once.
	reported := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				if b := goBodyOf(pass, x, decls, innermostLoop(stack)); b != nil {
					checkFloatAccum(pass, b, reported)
				}
			case *ast.RangeStmt:
				checkChannelReduce(pass, x)
			}
			return true
		})
	}
	return nil
}

// goBody is the code one go statement runs on its goroutine.
type goBody struct {
	body *ast.BlockStmt
	// [ownFrom, ownTo) spans the body's own declarations: a literal's
	// parameters and locals, or a named function's parameters and
	// locals with its receiver left out.
	ownFrom, ownTo token.Pos
	// loop is the innermost for or range statement enclosing the go
	// statement within its function, or nil. Its per-iteration
	// variables are distinct for every goroutine it launches.
	loop ast.Node
}

// goBodyOf resolves a go statement's body, or nil when it launches
// something other than a literal or a function declared in this
// package.
func goBodyOf(pass *Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, loop ast.Node) *goBody {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return &goBody{body: lit.Body, ownFrom: lit.Pos(), ownTo: lit.End(), loop: loop}
	}
	fd := decls[calleeFunc(pass.Info, g.Call)]
	if fd == nil {
		return nil
	}
	return &goBody{body: fd.Body, ownFrom: fd.Name.Pos(), ownTo: fd.End(), loop: loop}
}

func (b *goBody) owns(obj types.Object) bool {
	return obj != nil && b.ownFrom <= obj.Pos() && obj.Pos() < b.ownTo
}

// perGoroutine reports whether obj is a distinct variable in every
// goroutine the statement launches.
func (b *goBody) perGoroutine(obj types.Object) bool {
	return b.owns(obj) || b.loop != nil && declaredWithin(obj, b.loop)
}

// checkFloatAccum reports float accumulation into state rooted outside
// one go statement's body. Nested go statements are judged against
// their own bodies.
func checkFloatAccum(pass *Pass, b *goBody, reported map[token.Pos]bool) {
	ast.Inspect(b.body, func(n ast.Node) bool {
		var target ast.Expr
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				target = s.Lhs[0]
			}
		case *ast.IncDecStmt:
			target = s.X
		}
		if target == nil || reported[n.Pos()] || !isFloat(pass.Info.TypeOf(target)) {
			return true
		}
		root, indexed, slot := b.lvalue(pass, target)
		if root == nil || b.owns(root) || slot {
			return true
		}
		reported[n.Pos()] = true
		if indexed {
			pass.Reportf(n.Pos(), "floating-point accumulation into aliased slot %s: no index on its path is the goroutine's own, so every writer adds to the same element in scheduler order; index the slot by the goroutine's own or per-iteration variables", exprString(target))
			return true
		}
		pass.Reportf(n.Pos(), "floating-point accumulation into captured %s inside a goroutine: reduction order follows the scheduler; keep per-goroutine partials and combine them in a fixed order", root.Name())
		return true
	})
}

// lvalue peels index, selector, star and paren layers off e down to
// its root object (nil when the root is not a plain identifier),
// noting whether the path indexes and whether some index on it is a
// per-goroutine slot.
func (b *goBody) lvalue(pass *Pass, e ast.Expr) (root types.Object, indexed, slot bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.Info.ObjectOf(x), indexed, slot
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && isPkgName(pass.Info, id) {
				return pass.Info.ObjectOf(x.Sel), indexed, slot
			}
			e = x.X
		case *ast.IndexExpr:
			indexed = true
			slot = slot || b.slotIndex(pass, x)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, indexed, slot
		}
	}
}

// slotIndex reports whether ix selects a per-goroutine slot. A map
// element never does: every goroutine shares the map.
func (b *goBody) slotIndex(pass *Pass, ix *ast.IndexExpr) bool {
	if t := pass.Info.TypeOf(ix.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			return false
		}
	}
	if tv, ok := pass.Info.Types[ix.Index]; ok && tv.Value != nil {
		return b.loop == nil
	}
	// Every variable the index reads must be per-goroutine. Field and
	// method names do not count; a package-qualified variable does.
	own, sawVar := true, false
	fields := make(map[*ast.Ident]bool)
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); !ok || !isPkgName(pass.Info, id) {
				fields[x.Sel] = true
			}
		case *ast.Ident:
			if v, ok := pass.Info.ObjectOf(x).(*types.Var); ok && !fields[x] {
				sawVar = true
				own = own && b.perGoroutine(v)
			}
		}
		return own
	})
	return own && sawVar
}

// innermostLoop returns the nearest for or range ancestor of the node
// on top of stack within the same function, or nil.
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

// checkChannelReduce reports float accumulation driven by receives from
// a float channel.
func checkChannelReduce(pass *Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || !isFloat(ch.Elem()) {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		if !isFloat(pass.Info.TypeOf(as.Lhs[0])) {
			return true
		}
		pass.Reportf(as.Pos(), "floating-point reduction over channel %s: receive order is scheduler-dependent with concurrent senders; collect values and sum in a fixed order", exprString(rs.X))
		return true
	})
}
