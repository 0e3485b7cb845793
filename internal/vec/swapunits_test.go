package vec

import (
	"math/rand"
	"slices"
	"testing"
)

// unitShape is one SwapUnits call on an array of size length.
type unitShape struct {
	length             int
	i, di, j, dj, c, n int
}

// shapeOf derives a valid shape (all 2n units in range and pairwise
// disjoint) from raw fuzz bytes, in one of three patterns the kernels
// use: a reversal (the second unit walks backwards), two separate runs
// with independently signed strides, and a row against a column of a
// square unit matrix (the transposition).
func shapeOf(mode, cRaw, nRaw, gapA, gapB, pad uint8) unitShape {
	c := int(cRaw)%4 + 1
	n := int(nRaw) % 24
	sa, sb := c+int(gapA)%5, c+int(gapB)%5
	off := int(pad) % 7
	var s unitShape
	switch mode % 3 {
	case 0: // reverse m = 2n + (0 or 1) units, swapping unit t with m-1-t
		m := 2*n + int(pad)%2
		s = unitShape{i: off, di: sa, j: off + (m-1)*sa, dj: -sa, c: c, n: n}
		s.length = off + m*sa + int(gapB)%3
	case 1: // a run at [off, off+n*sa) and a run after it
		lo, hi := off, off+n*sa
		i, di := lo, sa
		if gapA&8 != 0 && n > 0 {
			i, di = lo+(n-1)*sa, -sa
		}
		j, dj := hi, sb
		if gapB&8 != 0 && n > 0 {
			j, dj = hi+(n-1)*sb, -sb
		}
		if mode&4 != 0 { // the run at j comes first in memory
			i, di, j, dj = j, dj, i, di
		}
		s = unitShape{i: i, di: di, j: j, dj: dj, c: c, n: n}
		s.length = hi + n*sb + int(pad)%3
	default: // row r, columns k..q-1 against column r, rows k..q-1
		q := n + 2
		row := q * c
		r := int(gapA) % (q - 1)
		k := r + 1 + int(gapB)%(q-r-1)
		s = unitShape{i: off + r*row + k*c, di: c, j: off + k*row + r*c, dj: row, c: c, n: q - k}
		s.length = off + q*row
	}
	return s
}

// valid reports whether every unit of s is in range and no two overlap.
func (s unitShape) valid() bool {
	seen := make([]bool, s.length)
	mark := func(at int) bool {
		if at < 0 || at+s.c > s.length {
			return false
		}
		for e := at; e < at+s.c; e++ {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	for t := 0; t < s.n; t++ {
		if !mark(s.i+t*s.di) || !mark(s.j+t*s.dj) {
			return false
		}
	}
	return true
}

// loopSwapUnits is the per-unit loop SwapUnits replaces.
func loopSwapUnits[T any, V Vec[T]](v V, s unitShape) {
	for t := 0; t < s.n; t++ {
		if s.c == 1 {
			v.Swap(0, s.i+t*s.di, s.j+t*s.dj)
		} else {
			v.SwapRange(0, s.i+t*s.di, s.j+t*s.dj, s.c)
		}
	}
}

func seqOf(n, scale int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = scale * (i + 1)
	}
	return s
}

// checkSwapUnits runs s through SwapUnits on Slice, Zip and View (over
// both, at an offset) and compares each with the per-unit loop.
func checkSwapUnits(t *testing.T, s unitShape) {
	t.Helper()
	if !s.valid() {
		t.Fatalf("invalid shape %+v", s)
	}
	want := seqOf(s.length, 1)
	loopSwapUnits[int](Of(want), s)
	wantVals := seqOf(s.length, -1)
	loopSwapUnits[int](Of(wantVals), s)

	got := seqOf(s.length, 1)
	Of(got).SwapUnits(0, s.i, s.di, s.j, s.dj, s.c, s.n)
	if !slices.Equal(got, want) {
		t.Fatalf("Slice %+v:\n got %v\nwant %v", s, got, want)
	}

	keys, vals := seqOf(s.length, 1), seqOf(s.length, -1)
	ZipOf(keys, vals).SwapUnits(0, s.i, s.di, s.j, s.dj, s.c, s.n)
	if !slices.Equal(keys, want) || !slices.Equal(vals, wantVals) {
		t.Fatalf("Zip %+v:\n got %v / %v\nwant %v / %v", s, keys, vals, want, wantVals)
	}

	const off = 3
	wide := append(seqOf(off, 1000), seqOf(s.length, 1)...)
	Window[int](Of(wide), off, s.length).SwapUnits(0, s.i, s.di, s.j, s.dj, s.c, s.n)
	if !slices.Equal(wide[:off], seqOf(off, 1000)) || !slices.Equal(wide[off:], want) {
		t.Fatalf("View of Slice %+v:\n got %v\nwant %v", s, wide[off:], want)
	}

	wk := append(seqOf(off, 1000), seqOf(s.length, 1)...)
	wv := append(seqOf(off, -1000), seqOf(s.length, -1)...)
	Window[KV[int, int]](ZipOf(wk, wv), off, s.length).SwapUnits(0, s.i, s.di, s.j, s.dj, s.c, s.n)
	if !slices.Equal(wk[off:], want) || !slices.Equal(wv[off:], wantVals) ||
		!slices.Equal(wk[:off], seqOf(off, 1000)) || !slices.Equal(wv[:off], seqOf(off, -1000)) {
		t.Fatalf("View of Zip %+v:\n got %v / %v\nwant %v / %v", s, wk[off:], wv[off:], want, wantVals)
	}
}

// TestSwapUnitsMatchesLoop: the direct loops of the slice backends equal
// the per-unit Swap/SwapRange loop on every pattern, for c = 1 and c > 1,
// negative strides and n = 0.
func TestSwapUnitsMatchesLoop(t *testing.T) {
	fixed := []unitShape{
		{length: 10, i: 0, di: 1, j: 9, dj: -1, c: 1, n: 5},  // Reverse
		{length: 12, i: 0, di: 3, j: 9, dj: -3, c: 3, n: 2},  // ReverseUnits of 4 units
		{length: 8, i: 1, di: 0, j: 6, dj: 0, c: 2, n: 1},    // a lone T0 swap
		{length: 8, i: 7, di: -1, j: 0, dj: 1, c: 1, n: 3},   // first run walks down
		{length: 6, i: 0, di: 1, j: 3, dj: 1, c: 1, n: 0},    // n = 0
		{length: 16, i: 1, di: 1, j: 4, dj: 4, c: 1, n: 3},   // transpose row 0 vs column 0
		{length: 32, i: 12, di: 2, j: 18, dj: 8, c: 2, n: 2}, // transpose, c = 2
	}
	for _, s := range fixed {
		checkSwapUnits(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		b := func() uint8 { return uint8(rng.Intn(256)) }
		checkSwapUnits(t, shapeOf(b(), b(), b(), b(), b(), b()))
	}
}

// FuzzSwapUnits checks SwapUnits on every slice backend against the
// per-unit loop, on fuzzed shapes.
func FuzzSwapUnits(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(7), uint8(8), uint8(9), uint8(1))
	f.Add(uint8(5), uint8(1), uint8(3), uint8(12), uint8(8), uint8(2))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, mode, c, n, gapA, gapB, pad uint8) {
		checkSwapUnits(t, shapeOf(mode, c, n, gapA, gapB, pad))
	})
}
