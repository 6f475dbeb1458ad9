package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatSum flags floating-point reductions whose accumulation order is
// scheduler-dependent:
//
//   - a += / -= / *= / /= (or ++/--) on a float variable captured from
//     outside a goroutine context: even when a mutex makes the update
//     race-free, the *order* of the additions follows the scheduler,
//     and float addition does not commute in rounding. Contexts come
//     from the goroutine tracker (goctx.go), so worker-pool task
//     closures fed to a pool runner count, not just `go func(){...}`
//     bodies;
//   - accumulation into a slot whose index is not task-derived
//     (partial[0] += v from every instance is one shared accumulator
//     wearing slot syntax);
//   - float accumulation inside `for range ch` over a channel of
//     floats: with more than one sender the receive order, and so the
//     sum, is scheduler-dependent.
//
// The deterministic pattern is per-task slots combined in a fixed order
// after the goroutines join.
var FloatSum = &Analyzer{
	Name: "floatsum",
	Doc:  "floating-point reduction in scheduler-dependent order (goroutine-shared accumulator, aliased slot, or channel-fed sum)",
	Run:  runFloatSum,
}

func runFloatSum(pass *Pass) error {
	idx := goroutineContexts(pass)
	for _, c := range idx.ctxs {
		checkFloatAccum(pass, idx, c)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkChannelReduce(pass, rs)
			}
			return true
		})
	}
	return nil
}

// checkFloatAccum reports float accumulation into state captured from
// outside one goroutine context.
func checkFloatAccum(pass *Pass, idx *goCtxIndex, c *goContext) {
	idx.walkBody(c, func(n ast.Node, stack []ast.Node) bool {
		var target ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				target = s.Lhs[0]
			}
		case *ast.IncDecStmt:
			target = s.X
		}
		if target == nil || !isFloat(pass.Info.TypeOf(target)) {
			return true
		}
		root, steps := lvalueSteps(pass, c, target)
		if root == nil || c.fresh(root) || hasStep(steps, stepIndexTask) {
			return true
		}
		if hasIndexStep(steps) {
			// A slot write with a non-task-derived index. One instance
			// owning one fixed slot is the recommended pattern; many
			// instances on the same slot is a shared accumulator in
			// disguise.
			if c.multi {
				pass.Reportf(n.Pos(), "floating-point accumulation into aliased slot %s: every instance of this %s adds to the same element in scheduler order; derive the index from the task's own span/index parameters", exprString(target), c.kind)
			}
			return true
		}
		pass.Reportf(n.Pos(), "floating-point accumulation into captured %s inside a goroutine: reduction order follows the scheduler; keep per-goroutine partials and combine them in a fixed order", root.Name())
		return true
	})
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
