// Package snapload defines an analyzer enforcing the engine's snapshot
// discipline on atomic.Pointer state fields.
//
// The DB publishes all immutable state (frozen memtables + run stack)
// through a single atomic.Pointer[dbstate] field. The correctness
// contract, established in PR 3 and relied on by every reader since,
// has two halves:
//
//  1. One load per operation. A reader loads the snapshot pointer
//     exactly once and serves the whole operation from that value.
//     Loading it twice in one operation tears the point-in-time view:
//     a flush or merge between the loads hands the second half of the
//     operation a different epoch (duplicated or vanished records in a
//     Range, a Get consulting runs that no longer match the frozen
//     list it already walked).
//  2. Publish only through the swap helpers. Store/Swap/CompareAndSwap
//     on the field is the commit point of the flush/merge protocol and
//     must follow its ordering (segment written → manifest committed →
//     snapshot swapped). Only the functions named by the "publishers"
//     flag may call them.
//
// The analyzer reports, for every field of type sync/atomic.Pointer[T]:
// a function whose body loads the same field expression more than once
// (waivable with //lint:allow where the second load is a publisher's
// deliberate under-mutex re-read), and any Store/Swap/CompareAndSwap
// outside the publisher set.
package snapload

import (
	"go/ast"
	"go/types"
	"strings"

	"implicitlayout/internal/analysis/lintkit"
)

// Analyzer enforces one-load snapshot reads and publisher-only swaps on
// atomic.Pointer fields.
var Analyzer = &lintkit.Analyzer{
	Name: "snapload",
	Doc: "enforce snapshot discipline on atomic.Pointer state fields\n\n" +
		"Reports functions that Load the same atomic.Pointer field more than once (a torn point-in-time view) " +
		"and Store/Swap/CompareAndSwap calls outside the designated publish helpers.",
	Run: run,
}

// publishers names the functions allowed to swap a snapshot pointer:
// the DB's open/recovery paths and the compactor's commit points.
var publishers = "Open,openDir,freezeLocked,flushOne,mergeOne,install"

func init() {
	Analyzer.Flags.StringVar(&publishers, "publishers", publishers,
		"comma-separated function names allowed to Store/Swap/CompareAndSwap snapshot pointers")
}

func run(pass *lintkit.Pass) error {
	pubs := make(map[string]bool)
	for _, name := range strings.Split(publishers, ",") {
		if name = strings.TrimSpace(name); name != "" {
			pubs[name] = true
		}
	}
	for fd := range lintkit.EnclosingFuncs(pass.TypesInfo, pass.Files) {
		checkFunc(pass, fd, pubs)
	}
	return nil
}

func checkFunc(pass *lintkit.Pass, fd *ast.FuncDecl, pubs map[string]bool) {
	loads := make(map[string]int) // rendered field expr -> count
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if fn == nil || !isAtomicPointerMethod(fn) {
			return true
		}
		field := types.ExprString(sel.X)
		switch fn.Name() {
		case "Load":
			loads[field]++
			if loads[field] >= 2 { // each extra load is its own finding (and needs its own waiver)
				pass.Reportf(call.Pos(),
					"%s loaded more than once in %s: a second Load sees a different epoch and tears the point-in-time view; load the snapshot once and reuse it",
					field, fd.Name.Name)
			}
		case "Store", "Swap", "CompareAndSwap":
			if !pubs[fd.Name.Name] {
				pass.Reportf(call.Pos(),
					"snapshot publish %s.%s outside the publish helpers (%s): swaps must follow the segment→manifest→snapshot commit ordering",
					field, fn.Name(), publishers)
			}
		}
		return true
	})
}

// isAtomicPointerMethod reports whether fn is a method of
// sync/atomic.Pointer[T].
func isAtomicPointerMethod(fn *types.Func) bool {
	named := lintkit.ReceiverNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
