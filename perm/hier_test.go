package perm

import (
	"reflect"
	"testing"

	"implicitlayout/layout"
)

// TestHierPermuteBoundaries: the hierarchical layout's two-pass in-place
// construction matches the oracle, and layout.Read restores sorted
// order, for both algorithm families across the boundary shapes the
// two-level blocking produces — n=1, below one cacheline block, below
// one page block, exact page multiples, and partial trailing blocks at
// both levels — with several cacheline capacities and worker counts.
func TestHierPermuteBoundaries(t *testing.T) {
	for _, b := range []int{1, 2, 8} {
		p := layout.HierPageKeys(b)
		sizes := []int{1, 2, b, b + 1, p - 1, p, p + 1, 2*p - 1, 3*p + b + 1}
		for _, n := range sizes {
			if n < 1 {
				continue
			}
			sorted := sortedKeys(n)
			want := layout.Build(layout.Hier, sorted, b)
			for _, a := range Algorithms() {
				for _, workers := range []int{1, 4} {
					got := append([]uint64(nil), sorted...)
					Permute(got, layout.Hier, a, WithB(b), WithWorkers(workers))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("b=%d n=%d %v P=%d: permute mismatch", b, n, a, workers)
					}
					layout.Read[uint64, int](layout.Hier, got, nil, got, nil, b)
					if !reflect.DeepEqual(got, sorted) {
						t.Fatalf("b=%d n=%d %v P=%d: round trip failed", b, n, a, workers)
					}
				}
			}
		}
	}
}

// TestHierPermuteWithRoundTrip: PermuteWith moves values by the same
// hierarchical permutation as keys, and layout.Read restores both.
func TestHierPermuteWithRoundTrip(t *testing.T) {
	n := 3*layout.HierPageKeys(DefaultB) + 29
	keys := sortedKeys(n)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(-i)
	}
	gotK := append([]uint64(nil), keys...)
	gotV := append([]int32(nil), vals...)
	PermuteWith(gotK, gotV, layout.Hier, CycleLeader, WithWorkers(2))
	if !reflect.DeepEqual(gotK, layout.Build(layout.Hier, keys, DefaultB)) {
		t.Fatal("PermuteWith keys mismatch")
	}
	for i, k := range gotK {
		if gotV[i] != int32(-int(k)/3) {
			t.Fatalf("pos %d: value %d not moved with key %d", i, gotV[i], k)
		}
	}
	layout.Read(layout.Hier, gotK, gotV, gotK, gotV, DefaultB)
	if !reflect.DeepEqual(gotK, keys) || !reflect.DeepEqual(gotV, vals) {
		t.Fatal("layout.Read round trip failed")
	}
}
