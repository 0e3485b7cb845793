package perm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"implicitlayout/layout"
)

// TestPermuteWithMatchesKeysAndMovesVals: for every layout x algorithm,
// the keys end up exactly where Permute puts them and each value travels
// with its key. Values are a distinct type (strings derived from the
// key) so a keys-for-vals mixup cannot type-check, let alone pass.
func TestPermuteWithMatchesKeysAndMovesVals(t *testing.T) {
	for _, n := range []int{0, 1, 2, 26, 100, 511, 512, 1000, 4095} {
		sorted := sortedKeys(n)
		for _, k := range append(layout.Kinds(), layout.Sorted) {
			wantKeys := layout.Build(k, sorted, DefaultB)
			for _, a := range Algorithms() {
				for _, workers := range []int{1, 3} {
					keys := append([]uint64(nil), sorted...)
					vals := make([]string, n)
					for i := range vals {
						vals[i] = fmt.Sprint("v", keys[i])
					}
					PermuteWith(keys, vals, k, a, WithWorkers(workers))
					if !slices.Equal(keys, wantKeys) {
						t.Fatalf("n=%d %v/%v P=%d: keys diverge from Permute", n, k, a, workers)
					}
					for i := range keys {
						if vals[i] != fmt.Sprint("v", keys[i]) {
							t.Fatalf("n=%d %v/%v P=%d: val %q detached from key %d at %d",
								n, k, a, workers, vals[i], keys[i], i)
						}
					}
				}
			}
		}
	}
}

// TestPermuteWithReadRoundTrip: layout.Read restores the key–value pairs
// PermuteWith laid out, for every layout, both algorithm families, and
// awkward sizes.
func TestPermuteWithReadRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 26, 255, 256, 1000, 4095} {
		sorted := sortedKeys(n)
		origVals := make([]int64, n)
		for i := range origVals {
			origVals[i] = -int64(sorted[i]) - 7
		}
		for _, k := range append(layout.Kinds(), layout.Sorted) {
			for _, a := range Algorithms() {
				keys := append([]uint64(nil), sorted...)
				vals := append([]int64(nil), origVals...)
				PermuteWith(keys, vals, k, a, WithWorkers(2))
				layout.Read(k, keys, vals, keys, vals, DefaultB)
				if !slices.Equal(keys, sorted) || !slices.Equal(vals, origVals) {
					t.Fatalf("n=%d %v/%v: round trip lost data", n, k, a)
				}
			}
		}
	}
}

// TestPermuteWithNonDefaultB: pairs follow the keys for B-tree layouts
// built with a custom node capacity, and read back with the same B.
func TestPermuteWithNonDefaultB(t *testing.T) {
	const n, b = 2000, 4
	sorted := sortedKeys(n)
	keys := append([]uint64(nil), sorted...)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = keys[i] * 10
	}
	PermuteWith(keys, vals, layout.BTree, CycleLeader, WithB(b), WithWorkers(2))
	if !reflect.DeepEqual(keys, layout.Build(layout.BTree, sorted, b)) {
		t.Fatal("keys diverge from oracle with WithB(4)")
	}
	for i := range keys {
		if vals[i] != keys[i]*10 {
			t.Fatalf("val detached at %d", i)
		}
	}
	layout.Read(layout.BTree, keys, vals, keys, vals, b)
	if !reflect.DeepEqual(keys, sorted) {
		t.Fatal("layout.Read with b=4 did not restore sorted order")
	}
	for i := range keys {
		if vals[i] != keys[i]*10 {
			t.Fatalf("val detached at %d after Read", i)
		}
	}
}

// TestPermuteWithLengthMismatchPanics: mismatched slices must fail loudly.
func TestPermuteWithLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteWith with mismatched lengths should panic")
		}
	}()
	PermuteWith([]uint64{1, 2}, []int{1}, layout.BST, CycleLeader)
}
