// Package core implements the paper's contribution: six parallel in-place
// algorithms that permute a sorted array into the BST, B-tree, and van
// Emde Boas (vEB) implicit search-tree layouts — an involution-based and a
// cycle-leader algorithm per layout (Chapters 2 and 3), with the
// non-perfect tree extensions of Chapter 5 so any array length is
// supported.
//
// Every algorithm moves data exclusively through the swap-based primitives
// of internal/shuffle and internal/gather, generic over the memory backend
// (raw slice, PEM I/O simulator, GPU cost model), and parallelizes through
// internal/par with O(P log N) auxiliary space — "in-place" per the
// paper's Definition 1.
package core

import (
	"fmt"

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

// Unpermute restores sorted order from layout k in v, in place and in
// parallel, with the involution rounds whichever family built it: both
// realize the same permutation. An unknown layout is an error.
func Unpermute[T any, V vec.Vec[T]](o Options, v V, k layout.Kind) error {
	switch k {
	case layout.Sorted:
		// identity
	case layout.BST:
		InvertInvolutionBST[T](o, v)
	case layout.BTree:
		InvertInvolutionBTree[T](o, v)
	case layout.VEB:
		InvertInvolutionVEB[T](o, v)
	case layout.Hier:
		InvertHier[T](o, v)
	default:
		return fmt.Errorf("perm: unknown layout %v", k)
	}
	return nil
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
