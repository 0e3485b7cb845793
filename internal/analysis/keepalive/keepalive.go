// Package keepalive defines an analyzer that keeps software-prefetch
// warm-up loads observable to the compiler.
//
// Go has no prefetch intrinsic, so a search kernel that wants a line in
// cache before it needs it issues an ordinary "warm-up" load and
// accumulates it into a local sink. The batched B-tree kernel
// (search's btreeBatchRing) does this for the partial last level: the
// last full-level step touches the ends of each machine's chosen child
// block, and the conditional tail scans that block once the whole ring
// has stepped:
//
//	var warm T
//	for base := 0; base < len(queries); base += ring {
//		...
//		if j := m.node * b; j < n {
//			if warm < a[j] { // pull the child block's line
//				warm = a[j]
//			}
//		}
//		...
//	}
//	runtime.KeepAlive(warm)
//
// The sink's value is never used, which is exactly the problem: a
// compiler that proves warm dead may delete the loads, silently turning
// the warmed kernel back into the cold one — a regression no test
// catches, because the code stays correct. The established idiom pins
// the sink with runtime.KeepAlive(warm) immediately before every
// return, which both keeps the loads live and stays race-free under
// concurrent batch queries (no shared sink).
//
// The analyzer recognizes warm-up sinks by shape — a local variable
// conditionally updated from an index expression inside a loop, where
// the condition compares the variable against that same load — and then
// requires runtime.KeepAlive(sink) to be the statement immediately
// preceding every return located after the warming loop begins.
// Returns before the loop (guard clauses) need no pin: nothing has been
// loaded yet.
package keepalive

import (
	"go/ast"
	"go/token"
	"go/types"

	"implicitlayout/internal/analysis/lintkit"
)

// Analyzer requires a runtime.KeepAlive pin on every exit of a
// prefetch warm-up loop.
var Analyzer = &lintkit.Analyzer{
	Name: "keepalive",
	Doc: "require runtime.KeepAlive pins on prefetch warm-up sinks\n\n" +
		"A local accumulated from in-loop warm-up loads (if sink < a[j] { sink = a[j] }) must be pinned with " +
		"runtime.KeepAlive(sink) immediately before every return after the loop starts, or the compiler may " +
		"delete the prefetching loads.",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for fd := range lintkit.EnclosingFuncs(pass.TypesInfo, pass.Files) {
		checkFunc(pass, fd)
	}
	return nil
}

// sink is one detected warm-up accumulator.
type sink struct {
	obj      types.Object
	loopPos  token.Pos // start of the loop doing the warming
	declPos  token.Pos
	keptOnce bool // some KeepAlive(sink) exists in the function
}

func checkFunc(pass *lintkit.Pass, fd *ast.FuncDecl) {
	sinks := findSinks(pass, fd)
	if len(sinks) == 0 {
		return
	}
	// Which sinks does any KeepAlive call pin?
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isKeepAlive(pass.TypesInfo, call) {
			return true
		}
		if obj := argObj(pass.TypesInfo, call); obj != nil {
			for _, s := range sinks {
				if s.obj == obj {
					s.keptOnce = true
				}
			}
		}
		return true
	})
	for _, s := range sinks {
		if !s.keptOnce {
			pass.Reportf(s.declPos,
				"prefetch warm-up sink %s is never pinned: the compiler may delete the warming loads; add runtime.KeepAlive(%s) before every return",
				s.obj.Name(), s.obj.Name())
		}
	}
	// Every return after a sink's loop start must be immediately
	// preceded by KeepAlive(sink) in its statement list.
	checkReturns(pass, fd.Body, sinks)
}

// findSinks detects warm-up accumulators: inside a for/range loop, an
// if statement whose condition compares a local variable against an
// index expression and whose body assigns that index expression (or
// any indexed load) to the variable.
func findSinks(pass *lintkit.Pass, fd *ast.FuncDecl) []*sink {
	var sinks []*sink
	seen := make(map[types.Object]bool)
	var loops []token.Pos // enclosing loop starts, innermost last
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.Pos())
			ast.Inspect(bodyOf(n), walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.IfStmt:
			if len(loops) == 0 {
				return true
			}
			obj := warmSinkOf(pass.TypesInfo, n)
			if obj != nil && !seen[obj] && obj.Parent() != pass.Pkg.Scope() {
				seen[obj] = true
				sinks = append(sinks, &sink{obj: obj, loopPos: loops[0], declPos: obj.Pos()})
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return sinks
}

func bodyOf(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// warmSinkOf matches `if v OP a[j] { v = <expr with index> }` (either
// operand order) and returns v's object.
func warmSinkOf(info *types.Info, ifs *ast.IfStmt) types.Object {
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return nil
	}
	var v *ast.Ident
	if id, ok := ast.Unparen(cond.X).(*ast.Ident); ok && isIndexLoad(cond.Y) {
		v = id
	} else if id, ok := ast.Unparen(cond.Y).(*ast.Ident); ok && isIndexLoad(cond.X) {
		v = id
	} else {
		return nil
	}
	obj := info.Uses[v]
	if obj == nil {
		return nil
	}
	// The body must feed the same variable from an indexed load.
	for _, s := range ifs.Body.List {
		asg, ok := s.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			continue
		}
		lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
		if !ok || info.Uses[lhs] != obj {
			continue
		}
		if isIndexLoad(asg.Rhs[0]) {
			return obj
		}
	}
	return nil
}

func isIndexLoad(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.IndexExpr)
	return ok
}

// checkReturns enforces the immediately-preceding-KeepAlive rule on
// every return statement after each sink's warming loop.
func checkReturns(pass *lintkit.Pass, body *ast.BlockStmt, sinks []*sink) {
	var walkList func(list []ast.Stmt)
	var walk func(n ast.Node) bool
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			if ret, ok := s.(*ast.ReturnStmt); ok {
				for _, sk := range sinks {
					if ret.Pos() < sk.loopPos || !sk.keptOnce {
						continue // guard-clause return, or already reported as never-pinned
					}
					if i == 0 || !keepsAlive(pass.TypesInfo, list[i-1], sk.obj) {
						pass.Reportf(ret.Pos(),
							"return without pinning warm-up sink %s: add runtime.KeepAlive(%s) immediately before this return",
							sk.obj.Name(), sk.obj.Name())
					}
				}
				continue
			}
			ast.Inspect(s, walk)
		}
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			walkList(n.List)
			return false
		case *ast.CaseClause:
			walkList(n.Body)
			return false
		case *ast.CommClause:
			walkList(n.Body)
			return false
		case *ast.FuncLit:
			return false // separate function, separate discipline
		}
		return true
	}
	walkList(body.List)
}

// keepsAlive reports whether stmt is runtime.KeepAlive(obj).
func keepsAlive(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || !isKeepAlive(info, call) {
		return false
	}
	return argObj(info, call) == obj
}

func isKeepAlive(info *types.Info, call *ast.CallExpr) bool {
	fn := lintkit.CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "runtime" && fn.Name() == "KeepAlive"
}

func argObj(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
