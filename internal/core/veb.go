package core

import (
	"sync"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// vebOps abstracts the one step both vEB algorithm families share: the
// separation of a subtree into its top tree and bottom subtrees. The
// involution family separates with un-shuffle/shuffle rounds (Section
// 2.3), the cycle-leader family with equidistant gathers (Section 3.1).
type vebOps[T any, V vec.Vec[T]] struct {
	// split separates a perfect subtree of n = 2^L - 1 sorted keys at
	// [off, off+n) into [T0][bottom_1]...[bottom_{r+1}], each part sorted.
	split func(rn par.Runner, v V, off, n, L int)
	// fullSplit does the same for the full part (a perfect tree with L-1
	// levels) of a non-perfect tree with L levels, using the *original*
	// tree's split boundary Lt = ceil(L/2): the bottoms come out with
	// Lb-1 levels each (their last level was peeled off beforehand).
	fullSplit func(rn par.Runner, v V, off, nFull, L int)
	// leafLevels is the largest level count of a perfect subtree laid
	// out in one cycle walk over its rank table (vebCycles, or
	// vebFrontCycles in front form) on backends that apply one
	// (Vec.ApplyCycles); 0 recurses to the bottom.
	leafLevels int
}

// vebLeafLevels is the cycle-leader family's leafLevels: 2^11-1 uint64
// key-value pairs are 32 KiB, an L1 data cache, and below that the
// recursion spends its time in the frames around rotations of a few
// units, not in moving data. At 2^22 pairs, cutoffs of 10 and 12 levels
// measured no faster, and 10 was slower at 2^22-1.
const vebLeafLevels = 11

// vebCycleTables memoizes the cycle walks of the perfect vEB trees of up
// to vebLeafLevels levels, from sorted order (sorted) and from the front
// form of vebFrontSeparated (front); their size depends only on that
// bound, never on N, and concurrent workers share them read-only.
var vebCycleTables [vebLeafLevels + 1]struct {
	sorted, front memoCycles
}

// memoCycles is one cycle table, built on first use.
type memoCycles struct {
	once sync.Once
	c    *vec.Cycles
}

func (m *memoCycles) get(src func() []int) *vec.Cycles {
	m.once.Do(func() { m.c = vec.NewCycles(src()) })
	return m.c
}

// vebCycles returns the cycle walks that take a sorted perfect subtree
// of the given level count to its vEB layout.
func vebCycles(levels int) *vec.Cycles {
	return vebCycleTables[levels].sorted.get(func() []int {
		return layout.Ranks(layout.VEB, 1<<uint(levels)-1, 0)
	})
}

// vebFrontCycles returns the cycle walks that take a perfect subtree in
// front form — its 2^(L-1) last-level keys (the even ranks), then its
// full-level keys (the odd ranks), each in order — to its vEB layout.
func vebFrontCycles(levels int) *vec.Cycles {
	return vebCycleTables[levels].front.get(func() []int {
		leaves := 1 << uint(levels-1)
		src := layout.Ranks(layout.VEB, 2*leaves-1, 0)
		for j, q := range src {
			if q%2 == 0 {
				src[j] = q / 2
			} else {
				src[j] = leaves + q/2
			}
		}
		return src
	})
}

// vebEntry permutes the sorted window into the vEB layout, dispatching
// between the perfect recursion and the Chapter 5 non-perfect path.
func vebEntry[T any, V vec.Vec[T]](o Options, v V, ops vebOps[T, V]) {
	rn := o.runner()
	n := v.Len()
	if n <= 1 {
		return
	}
	levels := bits.Levels(n)
	if n == 1<<uint(levels)-1 {
		vebRecurse[T](rn, v, 0, n, levels, ops)
		return
	}
	if rotationSeparation[T](rn.Lo, v) {
		fullN, w := parkPartialLevel[T](rn, v, 0, n)
		vebFrontSeparated[T](rn, v, 0, fullN, w, levels, ops)
		return
	}
	fullN, w := gatherPartialLevel[T](rn, v, 0, n, 1)
	vebAnySeparated[T](rn, v, 0, fullN, w, levels, ops)
}

// vebRecurse lays out a perfect subtree of n = 2^L - 1 sorted keys:
// split, then recurse on the top tree and all bottom subtrees in parallel.
func vebRecurse[T any, V vec.Vec[T]](rn par.Runner, v V, off, n, levels int, ops vebOps[T, V]) {
	if levels <= 1 {
		return
	}
	if levels <= ops.leafLevels && v.ApplyCycles(rn.Lo, off, vebCycles(levels)) {
		return
	}
	ops.split(rn, v, off, n, levels)
	lt, lb := layout.VEBSplit(levels)
	r := 1<<uint(lt) - 1
	if lb <= 1 {
		// Bottoms are single nodes; only the top tree recurses.
		vebRecurse[T](rn, v, off, r, lt, ops)
		return
	}
	l := 1<<uint(lb) - 1
	if rn.IsSerial() {
		vebRecurse[T](rn, v, off, r, lt, ops)
		for j := 0; j <= r; j++ {
			vebRecurse[T](rn, v, off+r+j*l, l, lb, ops)
		}
		return
	}
	rn.Tasks(r+2, func(i int, sub par.Runner) {
		if i == 0 {
			vebRecurse[T](sub, v, off, r, lt, ops)
			return
		}
		vebRecurse[T](sub, v, off+r+(i-1)*l, l, lb, ops)
	})
}

// vebAnySeparated lays out a complete (non-perfect) subtree with L levels
// whose keys have already been separated into [fullN full-level keys,
// sorted][w last-level keys, sorted] at [off, off+fullN+w). It splits the
// full part at the original tree's boundary, merges each bottom's share of
// last-level keys next to its full keys, and recurses — bottoms that
// received last-level keys recurse through this same separated form, so
// the separation is never repeated.
func vebAnySeparated[T any, V vec.Vec[T]](rn par.Runner, v V, off, fullN, w, levels int, ops vebOps[T, V]) {
	lt, lb := layout.VEBSplit(levels)
	r := 1<<uint(lt) - 1
	if lt == levels-1 {
		// The full part is exactly T0 and every last-level key is its own
		// single-node bottom subtree, already in position.
		vebRecurse[T](rn, v, off, r, lt, ops)
		return
	}
	ops.fullSplit(rn, v, off, fullN, levels)
	lp := 1<<uint(lb-1) - 1 // bottom full-part size
	capB := 1 << uint(lb-1) // bottom last-level capacity
	f := w / capB           // bottoms receiving a full leaf chunk
	s := w - f*capB         // size of the partial chunk (bottom f)
	mergeLeafChunks[T](rn, v, off+r, r+1, lp, capB, f, s)
	vebChildren[T](rn, v, off, w, levels, ops, func(sub par.Runner, start, wj int) {
		vebAnySeparated[T](sub, v, start, lp, wj, lb, ops)
	})
}

// vebChildren finishes a complete subtree with L levels and w last-level
// keys once its keys sit at off as [T0][bottom_0]...[bottom_r]: it lays
// out T0 and the bottoms without last-level keys by vebRecurse, and hands
// each other bottom, at start with wj last-level keys, to separated. The
// r+2 parts run in order on a serial runner, otherwise as parallel tasks.
func vebChildren[T any, V vec.Vec[T]](rn par.Runner, v V, off, w, levels int, ops vebOps[T, V], separated func(sub par.Runner, start, wj int)) {
	lt, lb := layout.VEBSplit(levels)
	r := 1<<uint(lt) - 1
	lp := 1<<uint(lb-1) - 1
	capB := 1 << uint(lb-1)
	bottom := func(sub par.Runner, j int) {
		wj := clamp(w-j*capB, 0, capB)
		start := off + r + j*lp + min(w, j*capB)
		if wj == 0 {
			vebRecurse[T](sub, v, start, lp, lb-1, ops)
			return
		}
		separated(sub, start, wj)
	}
	if rn.IsSerial() {
		vebRecurse[T](rn, v, off, r, lt, ops)
		for j := 0; j <= r; j++ {
			bottom(rn, j)
		}
		return
	}
	rn.Tasks(r+2, func(i int, sub par.Runner) {
		if i == 0 {
			vebRecurse[T](sub, v, off, r, lt, ops)
			return
		}
		bottom(sub, i-1)
	})
}

// vebFrontSeparated is vebAnySeparated for the slice backends' front
// form: the keys of a complete subtree with L levels sit at
// [off, off+w+fullN) as [w last-level keys, sorted][fullN full-level
// keys, sorted]. It splits the full part at the original tree's boundary
// into [T0][G_0]...[G_r], rotates the last-level keys past T0, and
// interleaves only the chunks of the bottoms that receive last-level keys
// with their full parts, each bottom in the same front form:
//
//	[C][T0][G_0..G_r] -> [T0][C_0..C_f][G_0..G_f][G_f+1..G_r]
//	                  -> [T0][C_0 G_0]...[C_f G_f][G_f+1..G_r]
//
// Bottoms after f are never touched; those with last-level keys recurse
// through this same form. At n = 2^k (w = 1) the cost over the perfect
// split is one rotation of r+1 keys per level of the recursion. A
// perfect subtree in front form (w = fullN+1) of at most ops.leafLevels
// levels is finished by one cycle walk (vebFrontCycles), as vebRecurse
// finishes sorted ones.
func vebFrontSeparated[T any, V vec.Vec[T]](rn par.Runner, v V, off, fullN, w, levels int, ops vebOps[T, V]) {
	if w == fullN+1 && levels <= ops.leafLevels && v.ApplyCycles(rn.Lo, off, vebFrontCycles(levels)) {
		return
	}
	lt, lb := layout.VEBSplit(levels)
	r := 1<<uint(lt) - 1
	if lt == levels-1 {
		// The full part is exactly T0 and every last-level key is its own
		// single-node bottom subtree, in position once behind T0.
		shuffle.RotateLeft[T](rn, v, off, w+r, w)
		vebRecurse[T](rn, v, off, r, lt, ops)
		return
	}
	ops.fullSplit(rn, v, off+w, fullN, levels)
	shuffle.RotateLeft[T](rn, v, off, w+r, w)
	lp := 1<<uint(lb-1) - 1 // bottom full-part size
	capB := 1 << uint(lb-1) // bottom last-level capacity
	interleaveFront[T](rn, v, off+r, 0, (w+capB-1)/capB, w, lp, capB)
	vebChildren[T](rn, v, off, w, levels, ops, func(sub par.Runner, start, wj int) {
		vebFrontSeparated[T](sub, v, start, lp, wj, lb, ops)
	})
}

// interleaveFront turns [C_c0..C_c0+c-1][G_c0..G_c0+c-1] at pos into
// [C_c0 G_c0]...[C_c0+c-1 G_c0+c-1], where the w last-level keys split
// into chunks C_j of capB keys (the last one possibly shorter) and every
// group G_j holds lp keys. Divide and conquer on c with one rotation per
// node, [C_a][C_b][G_a][G_b] -> [C_a][G_a][C_b][G_b], the halves in
// parallel above separateGrain keys: O(m log c) moves for the m keys
// involved.
func interleaveFront[T any, V vec.Vec[T]](rn par.Runner, v V, pos, c0, c, w, lp, capB int) {
	if c <= 1 {
		return
	}
	h := c / 2
	ca := min(w, (c0+h)*capB) - c0*capB
	cb := min(w, (c0+c)*capB) - (c0+h)*capB
	shuffle.RotateLeft[T](rn, v, pos+ca, cb+h*lp, cb)
	right := pos + ca + h*lp
	if rn.IsSerial() || ca+cb+c*lp < separateGrain {
		interleaveFront[T](rn, v, pos, c0, h, w, lp, capB)
		interleaveFront[T](rn, v, right, c0+h, c-h, w, lp, capB)
		return
	}
	rn.Do(
		func(sub par.Runner) { interleaveFront[T](sub, v, pos, c0, h, w, lp, capB) },
		func(sub par.Runner) { interleaveFront[T](sub, v, right, c0+h, c-h, w, lp, capB) },
	)
}

// mergeLeafChunks interleaves two adjacent block sequences in place: nG
// groups of lp elements (the bottoms' full parts) followed by the
// last-level chunks — f full chunks of capB elements plus, if s > 0, one
// partial chunk of s — producing [G_0 C_0][G_1 C_1]...[G_f partial]
// [G_{f+1}]...[G_{nG-1}]. Divide and conquer on the group count with one
// parallel rotation per node: O(n log nG) work, O(log² nG) rounds. (The
// paper sketches this merge as a chunked 2-way shuffle; the rotation tree
// keeps every step a uniform in-place primitive at the cost of one
// logarithmic factor on this non-perfect-only path.)
func mergeLeafChunks[T any, V vec.Vec[T]](rn par.Runner, v V, base, nG, lp, capB, f, s int) {
	cTot := f
	if s > 0 {
		cTot++
	}
	if cTot == 0 || lp == 0 {
		return
	}
	// csum(c) = total size of global chunks [0, c).
	csum := func(c int) int {
		t := min(c, f) * capB
		if c > f {
			t += s
		}
		return t
	}
	var rec func(rn par.Runner, pos, g0, ng, nc int)
	rec = func(rn par.Runner, pos, g0, ng, nc int) {
		// region at pos holds groups [g0, g0+ng) then chunks [g0, g0+nc).
		if nc == 0 || ng <= 1 {
			return
		}
		h := (ng + 1) / 2
		cL := clamp(h, 0, nc) // chunks belonging to the left half
		moved := (ng - h) * lp
		rotLen := moved + csum(g0+cL) - csum(g0)
		shuffle.RotateLeft[T](rn, v, pos+h*lp, rotLen, moved)
		leftSize := h*lp + csum(g0+cL) - csum(g0)
		if rn.IsSerial() {
			rec(rn, pos, g0, h, cL)
			rec(rn, pos+leftSize, g0+h, ng-h, nc-cL)
			return
		}
		rn.Do(
			func(sub par.Runner) { rec(sub, pos, g0, h, cL) },
			func(sub par.Runner) { rec(sub, pos+leftSize, g0+h, ng-h, nc-cL) },
		)
	}
	rec(rn, base, 0, nG, cTot)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
