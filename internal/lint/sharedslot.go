package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedSlot enforces rule 2 of the parallel determinism contract
// (DESIGN.md §5, invariant 5): goroutine-reachable code may write
// captured state only through a disjoint, pre-sized slot derived from
// the task's own span/index parameters. It flags
//
//   - plain writes to a captured scalar, field, or dereferenced pointer
//     reachable from more than one context instance;
//   - slot writes whose index is not task-derived (a constant or a
//     variable shared across instances aliases one element);
//   - appends to a captured slice (the shared header races and the
//     element order follows the scheduler);
//   - writes to a captured map (concurrent map writes, never a slot);
//   - `p := &captured[k]` aliases with a non-task-derived index, the
//     pointer-laundered form of the same bug.
//
// Mutex-guarded writes are deliberately left to mergeorder: the lock
// makes them race-free but still scheduler-ordered, which is a merge
// discipline finding, not a slot finding.
var SharedSlot = &Analyzer{
	Name: "sharedslot",
	Doc:  "goroutine-reachable write without a task-owned slot: shared scalar, aliased slot index, append to or map write on captured state",
	Run:  runSharedSlot,
}

type slotWrite struct {
	ctx   *goContext
	root  types.Object
	steps []writeStep
	pos   token.Pos
	expr  string
	app   bool // self-append: s = append(s, ...)
}

func runSharedSlot(pass *Pass) error {
	idx := goroutineContexts(pass)
	var writes []slotWrite
	for _, c := range idx.ctxs {
		c := c
		held := mutexHeldAt(pass, c.body())
		idx.walkBody(c, func(n ast.Node, stack []ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if as.Tok == token.DEFINE {
				checkSlotAlias(pass, c, as)
				return true
			}
			if as.Tok != token.ASSIGN {
				return true // op-assign reductions belong to mergeorder/floatsum
			}
			if len(heldCaptured(c, held, stack)) > 0 {
				return true // mutex-guarded: mergeorder's territory
			}
			for i, lhs := range as.Lhs {
				root, steps := lvalueSteps(pass, c, lhs)
				if root == nil || c.owns(root) {
					continue
				}
				writes = append(writes, slotWrite{
					ctx: c, root: root, steps: steps, pos: lhs.Pos(),
					expr: exprString(lhs), app: isSelfAppend(pass, as, i, root),
				})
			}
			return true
		})
	}

	// A write is a violation when the context itself runs many instances
	// over the same path (no task-derived index step), or when two
	// different contexts write paths that may overlap.
	byRoot := make(map[types.Object][]int)
	for i, w := range writes {
		byRoot[w.root] = append(byRoot[w.root], i)
	}
	for _, w := range writes {
		switch {
		case w.ctx.multi && !w.ctx.fresh(w.root) && !hasStep(w.steps, stepIndexTask):
			pass.Reportf(w.pos, "%s", selfCollisionMsg(w))
		case crossCollision(w, writes, byRoot[w.root]):
			pass.Reportf(w.pos, "captured %s is written by more than one goroutine context: give each context its own pre-sized slot and merge in fixed order on one goroutine", w.expr)
		}
	}
	return nil
}

// crossCollision reports whether another context writes a path on the
// same root that may overlap with w's.
func crossCollision(w slotWrite, writes []slotWrite, peers []int) bool {
	for _, i := range peers {
		o := writes[i]
		if o.ctx != w.ctx && stepsMayOverlap(w.steps, o.steps) {
			return true
		}
	}
	return false
}

func selfCollisionMsg(w slotWrite) string {
	switch {
	case w.app:
		return "append to captured " + w.root.Name() + " inside a " + w.ctx.kind +
			": the shared slice header races and element order follows the scheduler; pre-size the slice and write disjoint slots"
	case hasStep(w.steps, stepIndexMap):
		return "write to captured map " + w.root.Name() + " inside a " + w.ctx.kind +
			": concurrent map writes are unsafe; write per-task slots and merge on one goroutine"
	case hasIndexStep(w.steps):
		return "aliased slot index: every instance of this " + w.ctx.kind + " writes " + w.expr +
			"; derive the index from the task's own span/index parameters"
	default:
		return "captured " + w.expr + " is written by every instance of this " + w.ctx.kind +
			": tasks must own disjoint pre-sized slots, indexed by the task's span/index"
	}
}

// isSelfAppend reports whether the i-th assignment pair is
// `root... = append(root..., ...)`.
func isSelfAppend(pass *Pass, as *ast.AssignStmt, i int, root types.Object) bool {
	if len(as.Rhs) != len(as.Lhs) {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	return baseObject(pass.Info, call.Args[0]) == root
}

// checkSlotAlias flags `p := &captured[k]` inside a multi-instance
// context when k is not task-derived: every instance receives a pointer
// to the same element, and writes through p collide no matter how local
// they look.
func checkSlotAlias(pass *Pass, c *goContext, as *ast.AssignStmt) {
	if !c.multi {
		return
	}
	for _, rhs := range as.Rhs {
		u, ok := ast.Unparen(rhs).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		ie, ok := ast.Unparen(u.X).(*ast.IndexExpr)
		if !ok {
			continue
		}
		root, steps := lvalueSteps(pass, c, ie)
		if root == nil || c.fresh(root) || hasStep(steps, stepIndexTask) {
			continue
		}
		pass.Reportf(rhs.Pos(), "aliased pointer into captured %s: every instance of this %s holds the same element; derive the index from the task's own span/index parameters", root.Name(), c.kind)
	}
}
