package core

import (
	"implicitlayout/internal/bits"
	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
)

// InvolutionBTree permutes the sorted window into the level-order B-tree
// layout with the involution algorithm of Section 2.2. Per element level e
// (from the leaves up): a (B+1)-way perfect un-shuffle with simulated
// 1-indexing gathers the internal keys (every (B+1)-th) to the front and
// the leaf keys into residue-class columns; a B-way perfect shuffle of the
// leaf region then interleaves the columns back into B-key leaf nodes.
// The algorithm iterates on the internal keys, log_{B+1} N levels, for
// O((N/P + log_{B+1} N) log N) time (the log N factor is the extended
// Euclidean algorithm inside the J involutions).
func InvolutionBTree[T any, V vec.Vec[T]](o Options, v V) {
	rn := o.runner()
	b := o.b()
	n := v.Len()
	gatherPartialLevel[T](rn, v, 0, n, b)
	full, d := fullSize(n, b)
	btreeInvolutionPerfect[T](rn, v, b, full, d)
}

// btreeInvolutionPerfect runs the per-level un-shuffle/shuffle loop on a
// perfect prefix of full = (b+1)^d - 1 keys.
func btreeInvolutionPerfect[T any, V vec.Vec[T]](rn par.Runner, v V, b, full, d int) {
	k := b + 1
	ne := full
	for e := d; e >= 2; e-- {
		shuffle.KUnshuffle1[T](rn, v, 0, ne, k)
		leafStart := bits.Pow(k, e-1) - 1
		shuffle.KShuffle[T](rn, v, leafStart, ne-leafStart, b)
		ne = leafStart
	}
}
