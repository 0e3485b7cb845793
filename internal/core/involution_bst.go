package core

import (
	"implicitlayout/internal/bits"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
)

// InvolutionBST permutes the sorted window into the BST (Eytzinger) layout
// with the involution algorithm of Section 2.1 (after Fich, Munro,
// Poblete): writing the 1-indexed sorted position as i = (x 1 0^j)_2, its
// layout position is pi(i) = (0^j 1 x)_2, which factors into the two
// involutions rev2(d, .) followed by keep-MSB-reverse-rest. Each involution
// is one parallel round of N/2 independent swaps, so the algorithm runs in
// O(N/P * T_REV2(N)) time and O(1) rounds — the fastest-depth algorithm in
// Table 1.1. Non-perfect sizes are handled by the Chapter 5 pre-pass.
func InvolutionBST[T any, V vec.Vec[T]](o Options, v V) {
	rn := o.runner()
	rev := o.rev()
	n := v.Len()
	full, d := fullSize(n, 1)
	gatherPartialLevel[T](rn, v, 0, n, 1)
	if full < 2 {
		return
	}
	cost := rev.Cost(d) + 4
	shuffle.ApplyInvolution[T](rn, v, 0, full, cost, bstRound1{rev: rev, d: d})
	shuffle.ApplyInvolution[T](rn, v, 0, full, cost, bstRound2{rev: rev})
}

// bstRound1 is the first BST involution: reverse all d bits of the
// 1-indexed position (shifted to 0-indexing).
type bstRound1 struct {
	rev bits.Reverser
	d   int
}

// Map returns rev2(d, i+1) - 1.
func (m bstRound1) Map(i uint64) uint64 { return m.rev.Rev2(m.d, i+1) - 1 }

// bstRound2 is the second BST involution: keep the most significant bit of
// the 1-indexed position and reverse the rest.
type bstRound2 struct{ rev bits.Reverser }

// Map returns revBelowMSB(i+1) - 1.
func (m bstRound2) Map(i uint64) uint64 { return bits.RevBelowMSB(m.rev, i+1) - 1 }
