package core

import (
	"fmt"
	"slices"
	"testing"

	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// jSeparation is the paper's separation of ([b][1]) x m into
// [m*b][m]: the (b+1)-way un-shuffle, then the b-way shuffle of the
// leaf region, as gatherPartialLevel runs it on a declining backend.
func jSeparation(a []int, m, b int) {
	rn := par.New(1)
	shuffle.KUnshuffle[int](rn, vec.Of(a), 0, m*(b+1), b+1)
	if b >= 2 {
		shuffle.KShuffle[int](rn, vec.Of(a), 0, m*b, b)
	}
}

// TestSeparateLeaves checks the rotation separation against the J
// un-shuffle (and shuffle) it replaces on the slice backends, for every
// block count up to 300, leaf sizes from 1 to a hier page, and 1 to 3
// workers; the page-sized leaves reach the parallel halving. The J path
// evaluates a modular inverse per key and round, so at page-sized leaves
// it is the reference for every 25th count and the small ones; every
// count is checked against [leaves][separators] built directly.
func TestSeparateLeaves(t *testing.T) {
	for _, b := range []int{1, 2, 3, 8, layout.HierPageKeys(8)} {
		for m := 0; m <= 300; m++ {
			n := m * (b + 1)
			want := make([]int, 0, n)
			for i := range n {
				if i%(b+1) != b {
					want = append(want, i)
				}
			}
			for i := b; i < n; i += b + 1 {
				want = append(want, i)
			}
			if b <= 8 || m < 8 || m%25 == 0 {
				j := seq(n)
				jSeparation(j, m, b)
				if !slices.Equal(j, want) {
					t.Fatalf("b=%d m=%d: the J path differs from [leaves][separators] at %d", b, m, firstDiff(j, want))
				}
			}
			for p := 1; p <= 3; p++ {
				got := seq(n)
				separateLeaves[int](par.Runner{Lo: 0, Hi: p, MinFor: 1}, vec.Of(got), 0, m, b)
				if !slices.Equal(got, want) {
					t.Fatalf("b=%d m=%d P=%d: differs from [leaves][separators] at %d", b, m, p, firstDiff(got, want))
				}
			}
		}
	}
}

// checkPartialLevel runs both Chapter 5 pre-passes on n sorted keys, on
// the slice backend (rotation separation) and on one that declines
// (the J path), and checks that they agree: gatherPartialLevel must give
// the same [fulls][leaves] array on both, and parkPartialLevel that array
// with the leaves rotated to the front.
func checkPartialLevel(t *testing.T, rn par.Runner, n, b int) {
	t.Helper()
	want := seq(n)
	full, w := gatherPartialLevel[int](rn, noLeaf[int]{vec.Of(want)}, 0, n, b)
	got := seq(n)
	gf, gw := gatherPartialLevel[int](rn, vec.Of(got), 0, n, b)
	if gf != full || gw != w || !slices.Equal(got, want) {
		t.Fatalf("n=%d b=%d P=%d: gatherPartialLevel differs from the J path at %d", n, b, rn.P(), firstDiff(got, want))
	}
	if b != 1 {
		return
	}
	front := append(slices.Clone(want[full:]), want[:full]...)
	got = seq(n)
	pf, pw := parkPartialLevel[int](rn, vec.Of(got), 0, n)
	if pf != full || pw != w || !slices.Equal(got, front) {
		t.Fatalf("n=%d P=%d: parkPartialLevel differs from [leaves][fulls] at %d", n, rn.P(), firstDiff(got, front))
	}
}

// FuzzSeparateLeaves checks the slice backends' Chapter 5 pre-passes
// against the paper's J path on a declining slice, over fuzzed sizes,
// node capacities (up to a hier page) and worker counts.
func FuzzSeparateLeaves(f *testing.F) {
	f.Add(uint32(3<<9), uint16(0), uint8(1))
	f.Add(uint32(1<<12), uint16(7), uint8(2))
	f.Add(uint32(100000), uint16(511), uint8(3))
	f.Add(uint32(6561), uint16(7), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint32, bRaw uint16, pRaw uint8) {
		n := int(nRaw % (1<<18 + 1))
		b := int(bRaw)%layout.HierPageKeys(8) + 1
		p := int(pRaw)%3 + 1
		checkPartialLevel(t, par.Runner{Lo: 0, Hi: p, MinFor: 64}, n, b)
	})
}

// TestVEBFrontPairs runs both vEB families on key-value pairs through
// Zip, as perm.PermuteWith does, at sizes that put the slice backends'
// front form on each of its shapes: 2^L (one last-level key, f = 0),
// 2^L + c - 1 (the first bottom's chunk exactly full, s = 0), 2^L + c and
// 2^L + c + 1 (f = 1 and a partial chunk), and 3*2^L (a half-full last
// level one level down), where c = 2^(lb-1) is a bottom's last-level
// capacity at the root, for L = 10..13 on 1 to 3 workers. The keys must
// equal the reference layout and every value must stay beside its key.
func TestVEBFrontPairs(t *testing.T) {
	for _, a := range Algorithms() {
		for l := 10; l <= 13; l++ {
			_, lb := layout.VEBSplit(l + 1)
			c := 1 << uint(lb-1)
			for _, n := range []int{1 << uint(l), 1<<uint(l) + c - 1, 1<<uint(l) + c, 1<<uint(l) + c + 1, 3 << uint(l)} {
				want := layout.Ranks(layout.VEB, n, 0)
				for p := 1; p <= 3; p++ {
					t.Run(fmt.Sprintf("%v/n=%d/P=%d", a, n, p), func(t *testing.T) {
						keys, vals := seq(n), make([]int, n)
						for i := range vals {
							vals[i] = -i
						}
						z := vec.ZipOf(keys, vals)
						Permute[vec.KV[int, int]](Options{Runner: par.New(p)}, &z, layout.VEB, a)
						if !slices.Equal(keys, want) {
							t.Fatalf("keys differ from the reference layout at %d", firstDiff(keys, want))
						}
						for i, v := range vals {
							if v != -keys[i] {
								t.Fatalf("value %d beside key %d", v, keys[i])
							}
						}
					})
				}
			}
		}
	}
}
