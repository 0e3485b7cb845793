package core

import (
	"fmt"
	"slices"
	"testing"

	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// noLeaf is a slice backend that declines cycle walks, as the cost-model
// backends do: the vEB cycle-leader kernels run the paper's recursion to
// the bottom on it, and every kernel's Chapter 5 pre-pass is the paper's
// J un-shuffle rather than the rotation separation.
type noLeaf[T any] struct{ vec.Slice[T] }

func (noLeaf[T]) ApplyCycles(int, int, *vec.Cycles) bool { return false }

// TestVEBCyclesMatchRanks: for every level count the leaf covers, the
// memoized cycle walks applied to the identity reproduce the vEB rank
// table, and every position lies on exactly one cycle (a walk, or a
// fixed point of the table).
func TestVEBCyclesMatchRanks(t *testing.T) {
	for levels := 2; levels <= vebLeafLevels; levels++ {
		n := 1<<uint(levels) - 1
		want := layout.Ranks(layout.VEB, n, 0)
		c := vebCycles(levels)
		if c != vebCycles(levels) {
			t.Fatalf("levels=%d: table not memoized", levels)
		}
		got := seq(n)
		if !vec.Of(got).ApplyCycles(0, 0, c) {
			t.Fatal("Slice declined the cycle walk")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("levels=%d: cycle walk differs from the rank table at %d", levels, firstDiff(got, want))
		}
		cycles := make([]int, n)
		for _, j := range c.Walk {
			cycles[j]++
		}
		for j := range cycles {
			if want[j] == j {
				cycles[j]++ // a fixed point is its own cycle
			}
			if cycles[j] != 1 {
				t.Fatalf("levels=%d: position %d on %d cycles", levels, j, cycles[j])
			}
		}
	}
}

// TestVEBFrontCyclesMatchRanks: for every level count the leaf covers,
// the memoized front-form walks take a perfect tree in front form (the
// even ranks, then the odd ones) to the vEB rank table.
func TestVEBFrontCyclesMatchRanks(t *testing.T) {
	for levels := 2; levels <= vebLeafLevels; levels++ {
		n := 1<<uint(levels) - 1
		want := layout.Ranks(layout.VEB, n, 0)
		c := vebFrontCycles(levels)
		if c != vebFrontCycles(levels) || c == vebCycles(levels) {
			t.Fatalf("levels=%d: table not memoized apart from the sorted one", levels)
		}
		var got []int
		for q := 0; q < n; q += 2 {
			got = append(got, q)
		}
		for q := 1; q < n; q += 2 {
			got = append(got, q)
		}
		vec.Of(got).ApplyCycles(0, 0, c)
		if !slices.Equal(got, want) {
			t.Fatalf("levels=%d: front-form walk differs from the rank table at %d", levels, firstDiff(got, want))
		}
	}
}

// TestCycleVEBLeafPairs runs the vEB cycle-leader on key-value pairs, as
// perm.PermuteWith does, at the perfect sizes and the powers of two
// around the leaf cutoff (2^L-1 and 2^L for L from cutoff-1 to
// cutoff+2), on 1 to 3 workers: the keys must equal the reference layout
// and every value must stay beside its key. The tables are shared
// read-only across workers, so run it under -race.
func TestCycleVEBLeafPairs(t *testing.T) {
	for l := vebLeafLevels - 1; l <= vebLeafLevels+2; l++ {
		for _, n := range []int{1<<uint(l) - 1, 1 << uint(l)} {
			want := layout.Ranks(layout.VEB, n, 0)
			for p := 1; p <= 3; p++ {
				t.Run(fmt.Sprintf("n=%d/P=%d", n, p), func(t *testing.T) {
					keys, vals := seq(n), make([]int, n)
					for i := range vals {
						vals[i] = -i
					}
					z := vec.ZipOf(keys, vals)
					Permute[vec.KV[int, int]](Options{Runner: par.New(p)}, &z, layout.VEB, CycleLeader)
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
