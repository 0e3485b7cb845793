package core

import (
	"implicitlayout/internal/gather"
	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// CycleVEB permutes the sorted window into the van Emde Boas layout with
// the cycle-leader algorithm of Section 3.1: each vEB split is one
// equidistant gather (r == l, trees with an even level count) or two
// half-window gathers knitted together by a circular shift (r == 2l+1,
// odd level count), followed by parallel recursion into all subtrees.
// O(N/P log log N) time — the fastest CPU algorithm in the paper's
// measurements. With Options.TransposedGather the square gathers use the
// matrix-transposition I/O optimization of Section 4.2. On backends that
// apply cycle walks (Vec.ApplyCycles), perfect subtrees of at most
// vebLeafLevels levels are laid out by one walk over their rank table
// instead of by further splits.
func CycleVEB[T any, V vec.Vec[T]](o Options, v V) {
	vebEntry[T](o, v, cycleVEBOps[T, V](o.TransposedGather, o.GatherBatch))
}

func cycleVEBOps[T any, V vec.Vec[T]](transposed bool, batch int) vebOps[T, V] {
	square := func(rn par.Runner, v V, off, r int) {
		if transposed && r > 1 {
			gather.Transposed[T](rn, v, off, r, 1)
			return
		}
		if batch >= 2 {
			gather.EquidistantBatched[T](rn, v, off, r, r, 1, batch)
			return
		}
		gather.Equidistant[T](rn, v, off, r, r, 1)
	}
	return vebOps[T, V]{
		split: func(rn par.Runner, v V, off, n, levels int) {
			lt, lb := layout.VEBSplit(levels)
			r := 1<<uint(lt) - 1
			l := 1<<uint(lb) - 1
			if r == l {
				square(rn, v, off, r)
				return
			}
			// r == 2l+1: gather each half (each a perfect r' = l' = l
			// shape), then rotate the second half's top keys forward.
			half := (n - 1) / 2
			if rn.IsSerial() {
				square(rn, v, off, l)
				square(rn, v, off+half+1, l)
			} else {
				rn.Do(
					func(sub par.Runner) { square(sub, v, off, l) },
					func(sub par.Runner) { square(sub, v, off+half+1, l) },
				)
			}
			shuffle.RotateRight[T](rn, v, off+l, half+1, l+1)
		},
		fullSplit: func(rn par.Runner, v V, off, nFull, levels int) {
			if levels%2 == 0 {
				// The full part is a perfect tree with levels-1 (odd)
				// levels whose natural split boundary coincides with the
				// original tree's: reuse the perfect split.
				cycleVEBOps[T, V](transposed, batch).split(rn, v, off, nFull, levels-1)
				return
			}
			// Odd level count: the bottoms lost their last level, so the
			// shape is r = 2^lt - 1 tops with bottoms of l' = 2^(lb-1)-1
			// keys; r+1 = 4(l'+1), handled by the extended gather.
			lt, lb := layout.VEBSplit(levels)
			r := 1<<uint(lt) - 1
			lp := 1<<uint(lb-1) - 1
			gather.ExtendedPerfect[T](rn, v, off, r, lp, 1)
		},
		leafLevels: vebLeafLevels,
	}
}
