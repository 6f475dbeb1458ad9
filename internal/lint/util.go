package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// baseObject peels index, selector, star, and paren layers off an
// lvalue expression and returns the object of the root identifier:
// shared[i*r+j] → shared, a.b.c → a, (*p).x → p. It returns nil when
// the root is not a plain identifier (say, a function call).
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node's
// source range. Objects with no position (builtins, nil) count as
// outside.
func declaredWithin(obj types.Object, node ast.Node) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// isPkgName reports whether id names an imported package.
func isPkgName(info *types.Info, id *ast.Ident) bool {
	_, ok := info.ObjectOf(id).(*types.PkgName)
	return ok
}

// calleeFunc resolves a call to the *types.Func it invokes — package
// function or method, through selector or plain identifier — or nil for
// builtins, function-typed variables, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if s.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// methodCall returns the method name and receiver expression of call
// when it is a method invocation (x.M(...)), else ("", nil).
func methodCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

// namedRecv dereferences pointers off t and returns the named type
// underneath, if any.
func namedRecv(t types.Type) *types.Named {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		n, _ := t.(*types.Named)
		return n
	}
}

// isRNGType reports whether t (possibly behind pointers) is a known
// deterministic-stream RNG type: math/rand.Rand, math/rand/v2.Rand, or
// this repo's internal/stats.RNG.
func isRNGType(t types.Type) bool {
	n := namedRecv(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	switch {
	case (path == "math/rand" || path == "math/rand/v2") && name == "Rand":
		return true
	case strings.HasSuffix(path, "internal/stats") && name == "RNG":
		return true
	}
	return false
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// inspectWithStack walks root like ast.Inspect while maintaining the
// ancestor stack (root first, current node last) for the callback.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			// ast.Inspect will not descend, so it will not deliver the
			// matching pop; undo the push ourselves.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in
// stack, which must be ordered outermost-first.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
