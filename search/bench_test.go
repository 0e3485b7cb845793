package search

import (
	"fmt"
	"testing"

	"implicitlayout/layout"
)

// benchArr lays sorted out as kind for the micro-benchmarks.
func benchArr(kind layout.Kind, sorted []uint64) []uint64 {
	if kind == layout.Sorted {
		return sorted
	}
	return layout.Build(kind, sorted, 8)
}

// benchQs returns the query stream for an index of n odd keys.
func benchQs(n int) []uint64 {
	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = uint64(2*(i*2654435761%n) + 1)
	}
	return qs
}

var benchSink int

func benchQueries(b *testing.B, find func(q uint64) int, qs []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += find(qs[i&1023])
	}
}

// lazy returns f's result, computing it on the first call only, so a
// row the -bench filter skips never pays for its layout.
func lazy(f func() []uint64) func() []uint64 {
	var v []uint64
	return func() []uint64 {
		if v == nil {
			v = f()
		}
		return v
	}
}

// rawKernels names the raw search kernel of each layout that has one
// (hier has only its Index route).
var rawKernels = map[layout.Kind]string{
	layout.Sorted: "binary", layout.BST: "bst", layout.BTree: "btree", layout.VEB: "veb",
}

// rawKernel returns kind's raw search kernel over arr.
func rawKernel(kind layout.Kind, arr []uint64) func(q uint64) int {
	switch kind {
	case layout.Sorted:
		return func(q uint64) int { return Binary(arr, q) }
	case layout.BST:
		return func(q uint64) int { return BST(arr, q) }
	case layout.BTree:
		return func(q uint64) int { return BTree(arr, 8, q) }
	case layout.VEB:
		return func(q uint64) int { return VEB(arr, q) }
	}
	panic(fmt.Sprintf("no raw kernel for %v", kind))
}

// BenchmarkSearch lays each (kind, n) out once, on its first row: a
// layout of 2^24 keys is 128 MiB, and each row runs several b.N probes.
func BenchmarkSearch(b *testing.B) {
	// 3·2^19 leaves the last level half full, so the vEB descent takes
	// its partial-frame arithmetic; the powers of two do not.
	for _, size := range []struct {
		name string
		n    int
	}{{"2^16", 1 << 16}, {"2^20", 1 << 20}, {"3*2^19", 3 << 19}, {"2^24", 1 << 24}} {
		n, qs := size.n, benchQs(size.n)
		sorted := lazy(func() []uint64 { return oddKeys(n) })
		for _, kind := range allKindsWithSorted() {
			arr := lazy(func() []uint64 { return benchArr(kind, sorted()) })
			if name, ok := rawKernels[kind]; ok {
				b.Run(fmt.Sprintf("%s/n=%s", name, size.name), func(b *testing.B) {
					benchQueries(b, rawKernel(kind, arr()), qs)
				})
			}
			// The same queries through Index.Find: the raw kernel plus
			// the layout routing that every store lookup pays.
			b.Run(fmt.Sprintf("index/%v/n=%s", kind, size.name), func(b *testing.B) {
				benchQueries(b, NewIndex(arr(), kind, 8).Find, qs)
			})
		}
	}
}

func BenchmarkPredecessor(b *testing.B) {
	n := 1 << 20
	qs := benchQs(n)
	sorted := lazy(func() []uint64 { return oddKeys(n) })
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		arr := lazy(func() []uint64 { return benchArr(kind, sorted()) })
		b.Run(kind.String(), func(b *testing.B) {
			benchQueries(b, NewIndex(arr(), kind, 8).Predecessor, qs)
		})
	}
}
