package core

import (
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// PermuteHier rearranges the sorted window into the two-level hierarchical
// layout (layout.Hier) by composing the existing B-tree kernels — no new
// data movement primitives are needed. The outer pass is a whole-array
// B-tree permutation with node capacity P = HierPageKeys(b), which leaves
// every page block holding its P keys contiguously in ascending order;
// the second pass then permutes each page block independently into the
// cacheline B-tree layout with capacity b over a vec window. Both passes
// inherit the in-place O(P log N) auxiliary-space bound of the kernels
// they reuse, and the per-page pass is embarrassingly parallel.
func PermuteHier[T any, V vec.Vec[T]](o Options, v V, a Algorithm) {
	outer, inner, p := hierOptions(o)
	if a == CycleLeader {
		CycleBTree[T](outer, v)
	} else {
		InvolutionBTree[T](outer, v)
	}
	hierPages(o.runner(), v.Len(), p, func(sub par.Runner, off, pk int) {
		io := inner
		io.Runner = sub
		w := vec.Window[T](v, off, pk)
		if a == CycleLeader {
			CycleBTree[T](io, w)
		} else {
			InvolutionBTree[T](io, w)
		}
	})
}

// hierOptions splits the caller's options into the outer (page-capacity)
// and inner (cacheline-capacity) kernel configurations.
func hierOptions(o Options) (outer, inner Options, p int) {
	p = layout.HierPageKeys(o.b())
	outer, inner = o, o
	outer.B = p
	return outer, inner, p
}

// hierPages invokes f once per page block [off, off+pk), distributing the
// blocks over the runner's workers. Page blocks are disjoint windows, so
// the CREW discipline holds trivially.
func hierPages(rn par.Runner, n, p int, f func(sub par.Runner, off, pk int)) {
	pages := (n + p - 1) / p
	rn.Tasks(pages, func(i int, sub par.Runner) {
		off := i * p
		f(sub, off, min(p, n-off))
	})
}
