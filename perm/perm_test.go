package perm

import (
	"reflect"
	"sort"
	"testing"

	"implicitlayout/layout"
)

func sortedKeys(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i) * 3
	}
	return s
}

// TestPermuteMatchesOracle: the public API reproduces the oracle layout
// for every kind/algorithm pair, perfect and non-perfect sizes, serial and
// parallel.
func TestPermuteMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 26, 100, 511, 512, 1000, 4095} {
		sorted := sortedKeys(n)
		for _, k := range append(layout.Kinds(), layout.Sorted) {
			want := layout.Build(k, sorted, DefaultB)
			for _, a := range Algorithms() {
				for _, workers := range []int{1, 3} {
					got := make([]uint64, n)
					copy(got, sorted)
					Permute(got, k, a, WithWorkers(workers))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d %v/%v P=%d: mismatch", n, k, a, workers)
					}
				}
			}
		}
	}
}

// TestPermuteOptions: a non-default B still matches the oracle.
func TestPermuteOptions(t *testing.T) {
	n := 2000
	sorted := sortedKeys(n)

	got := append([]uint64(nil), sorted...)
	Permute(got, layout.BTree, CycleLeader, WithB(4), WithWorkers(2))
	if !reflect.DeepEqual(got, layout.Build(layout.BTree, sorted, 4)) {
		t.Fatal("WithB(4) mismatch")
	}
}

// TestPermuteIsPermutation: property — output is a rearrangement of the
// input (no key lost or duplicated), for a generic element type.
func TestPermuteIsPermutation(t *testing.T) {
	type kv struct {
		Key  int
		Blob [3]byte
	}
	n := 777
	in := make([]kv, n)
	for i := range in {
		in[i] = kv{Key: i, Blob: [3]byte{byte(i), byte(i >> 8), 0xAB}}
	}
	got := append([]kv(nil), in...)
	Permute(got, layout.VEB, CycleLeader, WithWorkers(3))
	back := append([]kv(nil), got...)
	sort.Slice(back, func(i, j int) bool { return back[i].Key < back[j].Key })
	if !reflect.DeepEqual(back, in) {
		t.Fatal("permutation lost or duplicated elements")
	}
}

// TestInPlaceAllocations: allocations do not scale with N — the in-place
// property of Definition 1. Serial runs of every algorithm on 2^12 vs 2^16
// elements must allocate (asymptotically) the same.
func TestInPlaceAllocations(t *testing.T) {
	run := func(n int, k layout.Kind, a Algorithm) float64 {
		data := sortedKeys(n)
		return testing.AllocsPerRun(3, func() {
			copySorted(data)
			Permute(data, k, a)
		})
	}
	for _, k := range layout.Kinds() {
		for _, a := range Algorithms() {
			small := run(1<<12, k, a)
			large := run(1<<16, k, a)
			// Allow generous slack for the recursion bookkeeping (which is
			// O(log n)) but reject anything near O(n).
			if large > small+600 {
				t.Errorf("%v/%v: allocations scale with N: %.0f -> %.0f", k, a, small, large)
			}
		}
	}
}

func copySorted(d []uint64) {
	for i := range d {
		d[i] = uint64(i) * 3
	}
}
