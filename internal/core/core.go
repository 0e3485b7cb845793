// Package core implements the paper's contribution: six parallel in-place
// algorithms that permute a sorted array into the BST, B-tree, and van
// Emde Boas (vEB) implicit search-tree layouts — an involution-based and a
// cycle-leader algorithm per layout (Chapters 2 and 3), with the
// non-perfect tree extensions of Chapter 5 so any array length is
// supported.
//
// Every algorithm moves data through the swap-based primitives of
// internal/shuffle and internal/gather, generic over the memory backend
// (raw slice, PEM I/O simulator, GPU cost model), and parallelizes through
// internal/par with O(P log N) auxiliary space — "in-place" per the
// paper's Definition 1. Two steps differ on the slice backends, which
// apply cycle walks (Vec.ApplyCycles):
//
//   - the vEB cycle-leader finishes each perfect subtree of at most
//     2^11-1 records in one in-place cycle walk over a fixed rank table
//     (one saved record per cycle, tables whose size depends only on that
//     bound), where the recursion below it would spend its time in the
//     frames around rotations of a few units;
//   - the Chapter 5 pre-pass separates the partial last level from the
//     full levels by block rotations (separateLeaves, O(n log m) moves for
//     m last-level nodes) instead of the J un-shuffle, which evaluates a
//     modular inverse per key. BST, B-tree and hier still park the last
//     level at the end; vEB parks it at the front and carries that front
//     form down the recursion (vebFrontSeparated), so at n = 2^k its
//     overhead over a perfect tree is one rotation of r+1 records per
//     level, where r is the top tree's size.
//
// The cost-model backends decline the walk, so they run the paper's
// recursion to the bottom and the paper's pre-pass, and every modelled
// count is that of the paper's algorithm.
package core

import (
	"implicitlayout/internal/bits"
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// Options configures a permutation run.
type Options struct {
	// Runner supplies the worker pool (P workers). The zero value selects
	// a single worker.
	Runner par.Runner
	// B is the B-tree node capacity (ignored by BST and vEB layouts).
	B int
	// Rev selects the T_REV2 model for the BST involution algorithm:
	// bits.Hardware (O(1), default) or bits.Software (O(log N) per call).
	Rev bits.Reverser
	// TransposedGather selects the matrix-transposition I/O optimization
	// of Section 4.2 for the vEB cycle-leader algorithm.
	TransposedGather bool
	// GatherBatch, when >= 2, makes the vEB cycle-leader process phase-1
	// cycles in batches of this many consecutive cycles per worker — the
	// "simpler solution" I/O optimization of Section 4.2. Ignored when
	// TransposedGather is set.
	GatherBatch int
}

func (o Options) runner() par.Runner {
	if o.Runner.P() < 1 {
		return par.New(1)
	}
	return o.Runner
}

func (o Options) rev() bits.Reverser {
	if o.Rev == nil {
		return bits.Hardware{}
	}
	return o.Rev
}

func (o Options) b() int {
	if o.B < 1 {
		panic("core: B-tree layouts require B >= 1")
	}
	return o.B
}

// Permute rearranges v (holding keys in sorted order) into layout k using
// algorithm a, in place and in parallel.
func Permute[T any, V vec.Vec[T]](o Options, v V, k layout.Kind, a Algorithm) {
	switch {
	case k == layout.Sorted:
		// identity
	case k == layout.BST && a == Involution:
		InvolutionBST[T](o, v)
	case k == layout.BST && a == CycleLeader:
		CycleBST[T](o, v)
	case k == layout.BTree && a == Involution:
		InvolutionBTree[T](o, v)
	case k == layout.BTree && a == CycleLeader:
		CycleBTree[T](o, v)
	case k == layout.VEB && a == Involution:
		InvolutionVEB[T](o, v)
	case k == layout.VEB && a == CycleLeader:
		CycleVEB[T](o, v)
	case k == layout.Hier && (a == Involution || a == CycleLeader):
		PermuteHier[T](o, v, a)
	default:
		panic("core: unknown layout/algorithm combination")
	}
}

// Algorithm selects one of the paper's two algorithm families.
type Algorithm int

const (
	// Involution composes the permutation from rounds of disjoint swaps
	// (Chapter 2).
	Involution Algorithm = iota
	// CycleLeader uses the equidistant gather machinery (Chapter 3).
	CycleLeader
)

// String returns the conventional name of the algorithm family.
func (a Algorithm) String() string {
	switch a {
	case Involution:
		return "involution"
	case CycleLeader:
		return "cycle-leader"
	}
	return "unknown"
}

// Algorithms lists both families.
func Algorithms() []Algorithm { return []Algorithm{Involution, CycleLeader} }
