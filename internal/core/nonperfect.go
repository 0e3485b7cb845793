package core

import (
	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// gatherPartialLevel implements the Chapter 5 pre-pass for complete (but
// not perfect) trees: the keys of the partial last level move, in order,
// to the end of the window [off, off+n), and the keys of the full levels
// gather, in order, at the front. It returns the sizes of the two parts.
//
// In sorted order the prefix of the array interleaves last-level leaf
// nodes (B keys each) with single separator keys from the full levels:
//
//	([B leaf keys][1 separator]) x (D-1)  [s leaf keys]  [remaining fulls]
//
// where D = ceil(W/B) is the number of last-level leaves and s the size of
// the final (possibly partial) one. A (B+1)-way un-shuffle peels the
// separators off the repeating region, a B-way shuffle restores leaf-major
// order, and two rotations deliver [fulls][leaves]. All steps are parallel
// rounds of swaps.
func gatherPartialLevel[T any, V vec.Vec[T]](rn par.Runner, v V, off, n, b int) (full, partial int) {
	k := b + 1
	full, _ = layout.PerfectPrefix(n, k)
	w := n - full
	if w == 0 {
		return full, 0
	}
	d := (w + b - 1) / b // last-level leaf nodes
	s := w - b*(d-1)     // keys in the final leaf
	if d > 1 {
		region := (d - 1) * k
		shuffle.KUnshuffle[T](rn, v, off, region, k)
		if b >= 2 {
			shuffle.KShuffle[T](rn, v, off, (d-1)*b, b)
		}
		// [leaves (d-1)b][separators d-1] -> [separators][leaves].
		shuffle.RotateLeft[T](rn, v, off, region, (d-1)*b)
	}
	// [seps d-1][leaves (d-1)b][s leaves][rest fulls] ->
	// [seps][rest fulls][all w leaves].
	shuffle.RotateLeft[T](rn, v, off+(d-1), n-(d-1), (d-1)*b+s)
	return full, w
}

// fullSize returns the number of keys on the full levels of a complete
// search tree with n keys and node capacity b, and the number of full
// levels h (full = (b+1)^h - 1).
func fullSize(n, b int) (full, h int) {
	return layout.PerfectPrefix(n, b+1)
}
