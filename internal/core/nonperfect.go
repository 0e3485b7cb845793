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
// rounds of swaps. On the slice backends (rotationSeparation) the
// un-shuffle and shuffle give way to separateLeaves, which reaches the
// same [leaves][separators] order by block rotations.
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
		if rotationSeparation[T](rn.Lo, v) {
			separateLeaves[T](rn, v, off, d-1, b)
		} else {
			shuffle.KUnshuffle[T](rn, v, off, region, k)
			if b >= 2 {
				shuffle.KShuffle[T](rn, v, off, (d-1)*b, b)
			}
		}
		// [leaves (d-1)b][separators d-1] -> [separators][leaves].
		shuffle.RotateLeft[T](rn, v, off, region, (d-1)*b)
	}
	// [seps d-1][leaves (d-1)b][s leaves][rest fulls] ->
	// [seps][rest fulls][all w leaves].
	shuffle.RotateLeft[T](rn, v, off+(d-1), n-(d-1), (d-1)*b+s)
	return full, w
}

// noWalk is the empty cycle walk that rotationSeparation offers.
var noWalk vec.Cycles

// rotationSeparation reports whether v takes the slice backends' Chapter 5
// path: the partial level separated by block rotations (separateLeaves)
// and, for vEB, parked at the front of the window (parkPartialLevel,
// vebFrontSeparated). It asks v to apply the empty cycle walk: the slice
// backends apply it and answer true, the cost-model backends decline, so
// on them the pre-pass keeps the paper's J un-shuffle and every modelled
// count stays that of the paper's algorithm.
func rotationSeparation[T any, V vec.Vec[T]](p int, v V) bool {
	return v.ApplyCycles(p, 0, &noWalk)
}

// separateGrain is the smallest region separateLeaves and interleaveFront
// split across workers; below it the fork costs more than the moves.
const separateGrain = 1 << 14

// separateLeaves turns ([b leaf keys][1 separator]) x m at off into
// [m*b leaf keys][m separators], both in order, by halving m: each half
// is separated (the halves in parallel above separateGrain keys), then
// one rotation of [S1][L2] joins [L1][S1][L2][S2] into [L1 L2][S1 S2].
// O(n log m) moves, every one inside a streaming rotation; it needs no
// per-element index arithmetic and no space beyond the recursion.
func separateLeaves[T any, V vec.Vec[T]](rn par.Runner, v V, off, m, b int) {
	if m <= 1 {
		return
	}
	h := m / 2
	mid := off + h*(b+1)
	if rn.IsSerial() || m*(b+1) < separateGrain {
		separateLeaves[T](rn, v, off, h, b)
		separateLeaves[T](rn, v, mid, m-h, b)
	} else {
		rn.Do(
			func(sub par.Runner) { separateLeaves[T](sub, v, off, h, b) },
			func(sub par.Runner) { separateLeaves[T](sub, v, mid, m-h, b) },
		)
	}
	shuffle.RotateLeft[T](rn, v, off+h*b, h+(m-h)*b, h)
}

// parkPartialLevel is the slice backends' vEB pre-pass: the last-level
// keys of the complete tree of n keys at [off, off+n) move, in order, to
// the front of the window and the full-level keys, in order, after them:
//
//	([leaf][separator]) x (w-1)  [leaf]  [remaining fulls]
//	  -> [w leaves][fulls]
//
// by separateLeaves and one rotation of the separators past the last
// leaf. Every move lies within the first 2w keys, so at n = 2^k (w = 1)
// the pass moves nothing. It returns the sizes of the two parts.
func parkPartialLevel[T any, V vec.Vec[T]](rn par.Runner, v V, off, n int) (full, w int) {
	full, _ = fullSize(n, 1)
	w = n - full
	if w > 1 {
		separateLeaves[T](rn, v, off, w-1, 1)
		// [leaves w-1][seps w-1][last leaf] -> [leaves w][seps].
		shuffle.RotateLeft[T](rn, v, off+w-1, w, w-1)
	}
	return full, w
}

// fullSize returns the number of keys on the full levels of a complete
// search tree with n keys and node capacity b, and the number of full
// levels h (full = (b+1)^h - 1).
func fullSize(n, b int) (full, h int) {
	return layout.PerfectPrefix(n, b+1)
}
