// Quickstart: permute a sorted array into a search-tree layout in place,
// query it, and restore sorted order — the one-minute tour of the library.
package main

import (
	"fmt"
	"runtime"
	"slices"

	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/search"
)

func main() {
	// 1. Start from sorted data (here: the odd numbers up to 2N-1).
	const n = 1 << 20
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2*i + 1)
	}

	// 2. Permute it, in place and in parallel, into a B-tree layout whose
	//    node size matches a 64-byte cache line. No second array exists at
	//    any point — the transformation is a sequence of swaps.
	perm.Permute(keys, layout.BTree, perm.CycleLeader,
		perm.WithWorkers(runtime.NumCPU()))

	// 3. Query the layout. Each search touches one cache line per tree
	//    level instead of one per comparison (binary search).
	ix := search.NewIndex(keys, layout.BTree, layout.DefaultB)
	for _, q := range []uint64{1, 99991, 2*n - 1, 42} {
		if pos := ix.Find(q); pos >= 0 {
			fmt.Printf("Find(%d)  -> position %d\n", q, pos)
		} else {
			fmt.Printf("Find(%d)  -> not present\n", q)
		}
	}

	// Predecessor queries work on every layout too.
	if pos := ix.Predecessor(100); pos >= 0 {
		fmt.Printf("Pred(100) -> %d\n", keys[pos])
	}

	// 4. Restore sorted order in place with layout.Read, the way back
	//    from every layout (no values ride along here).
	layout.Read[uint64, struct{}](layout.BTree, keys, nil, keys, nil, layout.DefaultB)
	fmt.Printf("restored sorted order: %v, keys[0]=%d keys[%d]=%d\n",
		slices.IsSorted(keys), keys[0], n-1, keys[n-1])
}
