package search

import (
	"fmt"
	"testing"

	"implicitlayout/layout"
)

// benchArr builds one layout and a query stream for the micro-benchmarks.
func benchArr(b *testing.B, kind layout.Kind, n, bw int) ([]uint64, []uint64) {
	b.Helper()
	sorted := oddKeys(n)
	arr := sorted
	if kind != layout.Sorted {
		arr = layout.Build(kind, sorted, bw)
	}
	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = uint64(2*(i*2654435761%n) + 1)
	}
	return arr, qs
}

var benchSink int

func benchQueries(b *testing.B, find func(q uint64) int, qs []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += find(qs[i&1023])
	}
}

func BenchmarkSearch(b *testing.B) {
	// 3·2^19 leaves the last level half full, so the vEB descent takes
	// its partial-frame arithmetic; the powers of two do not.
	for _, size := range []struct {
		name string
		n    int
	}{{"2^16", 1 << 16}, {"2^20", 1 << 20}, {"3*2^19", 3 << 19}, {"2^24", 1 << 24}} {
		n := size.n
		b.Run(fmt.Sprintf("binary/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.Sorted, n, 8)
			benchQueries(b, func(q uint64) int { return Binary(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BST(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst-branchless/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BSTBranchless(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst-prefetch/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BSTPrefetch(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("btree/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BTree, n, 8)
			benchQueries(b, func(q uint64) int { return BTree(arr, 8, q) }, qs)
		})
		b.Run(fmt.Sprintf("veb/n=%s", size.name), func(b *testing.B) {
			arr, qs := benchArr(b, layout.VEB, n, 8)
			benchQueries(b, func(q uint64) int { return VEB(arr, q) }, qs)
		})
	}
}

func BenchmarkPredecessor(b *testing.B) {
	n := 1 << 20
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		b.Run(kind.String(), func(b *testing.B) {
			arr, qs := benchArr(b, kind, n, 8)
			ix := NewIndex(arr, kind, 8)
			benchQueries(b, ix.Predecessor, qs)
		})
	}
}
