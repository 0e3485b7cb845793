package gather

import (
	"fmt"

	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
)

// Transposed performs the equidistant gather for the square case r == l
// using the I/O-optimized algorithm of Section 4.2 (Figure 4.1): the
// window is viewed as an (r+1) x (r+1) row-major matrix of units with the
// bottom-right unit missing. Each row i of the leading r x r submatrix is
// rotated right by i, aligning the elements of each phase-1 cycle into a
// column; transposing the submatrix then makes every cycle contiguous, so
// each cycle rotation touches sequential memory. The transformation is
// undone afterwards and the usual phase-2 fixup shifts complete the
// gather. The result is identical to Equidistant with r == l.
func Transposed[T any, V vec.Vec[T]](rn par.Runner, v V, lo, r, c int) {
	if r == 0 {
		return
	}
	if r < 0 || c < 1 {
		panic(fmt.Sprintf("gather: invalid transposed shape r=%d c=%d", r, c))
	}
	if r == 1 {
		Equidistant[T](rn, v, lo, 1, 1, c)
		return
	}
	rowLen := (r + 1) * c // elements per matrix row

	// Step 1: rotate row i of the r x r submatrix right by i units.
	shiftRow := func(sub par.Runner, i int, back bool) {
		s := i % r
		if back {
			s = (r - s) % r
		}
		shuffle.RotateRightUnits[T](sub, v, lo+i*rowLen, c, r, c, s)
	}
	shiftRows := func(back bool) {
		v.BeginRound("gather/rowshift", r*r*c)
		if rn.IsSerial() {
			for i := 1; i < r; i++ {
				shiftRow(rn, i, back)
			}
			return
		}
		rn.Tasks(r-1, func(i0 int, sub par.Runner) {
			shiftRow(sub, i0+1, back)
		})
	}
	shiftRows(false)
	transpose[T](rn, v, lo, r, rowLen, c)

	// Step 3: every cycle is now contiguous. Cycle i (1-indexed) occupies
	// the first i units of row i-1 plus the T0 unit in column r of the
	// same row; rotate its contents right by one: rotate the contiguous
	// run, then swap the first unit with the T0 unit.
	v.BeginRound("gather/cycles", (r*(r+3)/2)*c)
	rotCycles := func(p, a, b int) {
		sub := par.Serial(p)
		for i := a; i <= b; i++ {
			rowBase := lo + (i-1)*rowLen
			shuffle.RotateRightUnits[T](sub, v, rowBase, c, i, c, 1)
			v.SwapUnits(p, rowBase, 0, rowBase+r*c, 0, c, 1) // the T0 unit
		}
	}
	if rn.IsSerial() {
		rotCycles(rn.Lo, 1, r)
	} else {
		cum := func(i int) int { return i * (i + 3) / 2 }
		rn.ForWeighted(r, cum, func(p, a, b int) { rotCycles(p, a+1, b) })
	}

	// Steps 4-5: undo the transposition, then the row shifts.
	transpose[T](rn, v, lo, r, rowLen, c)
	shiftRows(true)

	phase2[T](rn, v, lo, r, r, c)
}

// transposeTile bounds the square tile (in units) processed at once, so a
// tile pair fits in a cache of Θ(tile²·c) elements — the tall-cache tiling
// that gives the O(r²/B) transposition bound of Vitter (Section 4.2).
const transposeTile = 32

// transpose transposes the r x r unit submatrix in place (unit (i,j) at
// element offset lo + i*rowLen + j*c), swapping whole units so unit
// contents are preserved. Tiles are processed pairwise for I/O efficiency
// and distributed across workers.
func transpose[T any, V vec.Vec[T]](rn par.Runner, v V, lo, r, rowLen, c int) {
	v.BeginRound("gather/transpose", r*r*c)
	tiles := (r + transposeTile - 1) / transposeTile
	// Enumerate tile pairs (ti, tj) with ti <= tj.
	npairs := tiles * (tiles + 1) / 2
	doPairs := func(p, a, b int) {
		for idx := a; idx < b; idx++ {
			ti, tj := unflattenPair(idx, tiles)
			iEnd := min(r, (ti+1)*transposeTile)
			jEnd := min(r, (tj+1)*transposeTile)
			for i := ti * transposeTile; i < iEnd; i++ {
				j := tj * transposeTile
				if ti == tj {
					j = i + 1
				}
				// Units (i, j..jEnd) of row i with units (j..jEnd, i) of
				// column i: one backend call per tile row.
				v.SwapUnits(p, lo+i*rowLen+j*c, c, lo+j*rowLen+i*c, rowLen, c, jEnd-j)
			}
		}
	}
	if rn.IsSerial() {
		doPairs(rn.Lo, 0, npairs)
		return
	}
	rn.For(npairs, doPairs)
}

// unflattenPair maps a linear index to the idx-th pair (i, j), i <= j < n,
// enumerated row by row.
func unflattenPair(idx, n int) (int, int) {
	i := 0
	rowLen := n
	for idx >= rowLen {
		idx -= rowLen
		i++
		rowLen--
	}
	return i, i + idx
}
