package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MergeOrder enforces rule 3 of the parallel determinism contract
// (DESIGN.md §5, invariant 5): results are merged on one goroutine in a
// fixed order, never accumulated concurrently. It flags, inside
// goroutine contexts,
//
//   - updates of captured state performed while a captured mutex is
//     held — the lock makes the merge race-free but its order still
//     follows the scheduler;
//   - atomic reductions (sync/atomic Add/Or/And/Swap/Store families,
//     method or package form) on captured state when more than one
//     context instance performs them, unless the result is consumed
//     (consumed results are coordination — task claiming — not merging);
//   - bare read-modify-write accumulation (`x += v`, `x++`) on captured
//     non-float state shared across instances or contexts. Float
//     accumulators stay with floatsum, which explains the
//     rounding-order consequence specifically.
//
// CompareAndSwap is exempt: CAS loops implement claim protocols whose
// winners are data-determined, the contract's sanctioned use.
var MergeOrder = &Analyzer{
	Name: "mergeorder",
	Doc:  "reduction merged across goroutines (mutex-guarded update, scheduler-ordered atomic, or shared accumulator) instead of a single-goroutine fixed-order merge",
	Run:  runMergeOrder,
}

type mergeKind int

const (
	mergeGuarded mergeKind = iota // write under captured mutex
	mergeAtomic                   // atomic reduction, result unused
	mergeAccum                    // bare op-assign / inc-dec
)

type mergeWrite struct {
	ctx  *goContext
	root types.Object
	kind mergeKind
	pos  token.Pos
	expr string
	lock string // mutex path for mergeGuarded
}

func runMergeOrder(pass *Pass) error {
	idx := goroutineContexts(pass)
	var writes []mergeWrite
	for _, c := range idx.ctxs {
		c := c
		held := mutexHeldAt(pass, c.body())
		idx.walkBody(c, func(n ast.Node, stack []ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true
				}
				locks := heldCaptured(c, held, stack)
				for _, lhs := range s.Lhs {
					w, ok := classifyMerge(pass, c, lhs, s.Tok, locks)
					if ok {
						writes = append(writes, w)
					}
				}
			case *ast.IncDecStmt:
				w, ok := classifyMerge(pass, c, s.X, token.ADD_ASSIGN, heldCaptured(c, held, stack))
				if ok {
					writes = append(writes, w)
				}
			case *ast.CallExpr:
				if w, ok := classifyAtomic(pass, c, s, stack); ok {
					writes = append(writes, w)
				}
			}
			return true
		})
	}

	byRoot := make(map[types.Object][]int)
	for i, w := range writes {
		byRoot[w.root] = append(byRoot[w.root], i)
	}
	cross := func(w mergeWrite) bool {
		if w.ctx.multi {
			return true
		}
		for _, i := range byRoot[w.root] {
			if writes[i].ctx != w.ctx {
				return true
			}
		}
		return false
	}
	for _, w := range writes {
		switch w.kind {
		case mergeGuarded:
			pass.Reportf(w.pos, "update of captured %s under mutex %s inside a %s: the lock serializes the merge but its order still follows the scheduler; fold per-task slots on one goroutine in fixed order", w.expr, w.lock, w.ctx.kind)
		case mergeAtomic:
			if cross(w) {
				pass.Reportf(w.pos, "atomic reduction into captured %s inside a %s: race-free but scheduler-ordered; keep per-task slots and fold them on one goroutine in fixed order", w.expr, w.ctx.kind)
			}
		case mergeAccum:
			if cross(w) {
				pass.Reportf(w.pos, "accumulation into captured %s across goroutines: merge order (and the race) follows the scheduler; keep per-task partials and fold them on one goroutine in fixed order", w.expr)
			}
		}
	}
	return nil
}

// classifyMerge decides whether one lvalue write is a merge-discipline
// finding: a guarded write (any operator) or a bare read-modify-write.
func classifyMerge(pass *Pass, c *goContext, lhs ast.Expr, tok token.Token, locks []lockKey) (mergeWrite, bool) {
	root, steps := lvalueSteps(pass, c, lhs)
	if root == nil || c.fresh(root) || hasStep(steps, stepIndexTask) {
		return mergeWrite{}, false
	}
	if tok != token.ASSIGN && isFloat(pass.Info.TypeOf(lhs)) {
		return mergeWrite{}, false // floatsum's finding, locked or not
	}
	w := mergeWrite{ctx: c, root: root, pos: lhs.Pos(), expr: exprString(lhs)}
	if len(locks) > 0 {
		w.kind = mergeGuarded
		w.lock = locks[0].path
		return w, true
	}
	if tok == token.ASSIGN {
		return mergeWrite{}, false // unguarded plain overwrites are sharedslot's
	}
	w.kind = mergeAccum
	return w, true
}

// classifyAtomic recognizes sync/atomic reductions on captured state:
// Add/Or/And/Swap/Store with the result unused, in method form
// (v.Add(1)) or package form (atomic.AddInt64(&v, 1)).
func classifyAtomic(pass *Pass, c *goContext, call *ast.CallExpr, stack []ast.Node) (mergeWrite, bool) {
	var target ast.Expr
	if name, recv := methodCall(pass.Info, call); recv != nil {
		if m := calleeFunc(pass.Info, call); m == nil || m.Pkg() == nil || m.Pkg().Path() != "sync/atomic" {
			return mergeWrite{}, false
		} else if !isAtomicReduceName(name) {
			return mergeWrite{}, false
		}
		target = recv
	} else if fn := pkgFunc(pass.Info, call); fn != nil && fn.Pkg().Path() == "sync/atomic" && isAtomicReduceName(fn.Name()) && len(call.Args) > 0 {
		arg := ast.Unparen(call.Args[0])
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			target = u.X
		} else {
			target = arg
		}
	} else {
		return mergeWrite{}, false
	}
	// A consumed result is a claim/coordination protocol (the pool's
	// `next.Add(1)`), not a merge.
	if len(stack) < 2 {
		return mergeWrite{}, false
	}
	if _, unused := stack[len(stack)-2].(*ast.ExprStmt); !unused {
		return mergeWrite{}, false
	}
	root, steps := lvalueSteps(pass, c, target)
	if root == nil || c.fresh(root) || hasStep(steps, stepIndexTask) {
		return mergeWrite{}, false
	}
	return mergeWrite{
		ctx: c, root: root, kind: mergeAtomic,
		pos: call.Pos(), expr: exprString(target),
	}, true
}

// isAtomicReduceName matches the reducing sync/atomic operations.
// CompareAndSwap and Load are excluded by construction.
func isAtomicReduceName(name string) bool {
	if strings.HasPrefix(name, "CompareAndSwap") {
		return false
	}
	for _, p := range []string{"Add", "Or", "And", "Swap", "Store"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
