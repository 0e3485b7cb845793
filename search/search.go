// Package search implements the query side of every memory layout the
// repository builds. Each layout has one kernel per question: plain
// binary search on sorted arrays (the paper's baseline), level-order BST
// search, level-order B-tree search, van Emde Boas search, and the
// two-level hier search, whose page steps run the B-tree kernels on one
// page. These are the engines behind the paper's evaluation figures
// 6.5–6.7 and 6.9, and the Index type wraps any laid-out array in one
// queryable interface over them. Go has no prefetch instruction, so the
// paper's prefetched-BST series has no kernel here: a warm-up load is a
// demand load, and it measured slower than the plain descent.
//
// Beyond exact membership, an Index answers predecessor and successor
// queries, gives positional access in sorted order (PosOfRank/AtRank,
// O(log N) index arithmetic with no rank table), and reads keys in
// ascending order through a Cursor: Seek to a key in O(log N), then Next
// at amortized O(1) node visits, walking the layout's tree in order with
// no unpermuting and no allocation. Range and Scan are loops over a
// Cursor. FindBatch fans independent queries across workers, the
// embarrassingly parallel workload of the paper's GPU evaluation, and
// runs each worker's chunk on the layout's interleaved ring kernel where
// it has one (batch.go).
// These primitives are what the store layer builds its record serving
// on: positions returned by an Index are array positions, so a value
// slice laid out alongside its keys (layout.Write, perm.PermuteWith) is
// indexed by the very same integers. A caller that wants the sorted
// array itself back restores it with layout.Read.
package search

import (
	"cmp"

	"implicitlayout/layout"
)

// Binary performs classical binary search on a sorted array and returns
// the index of x, or -1. It is the no-permutation baseline: optimal
// O(log N) comparisons but one cache line touched per comparison.
func Binary[T cmp.Ordered](a []T, x T) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case a[mid] == x:
			return mid
		case a[mid] < x:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// BST searches the level-order (Eytzinger) BST layout and returns the
// position of x, or -1. Children of position i sit at 2i+1 and 2i+2, so
// the top levels of the tree share a handful of cache lines.
func BST[T cmp.Ordered](a []T, x T) int {
	n := len(a)
	i := 0
	for i < n {
		v := a[i]
		switch {
		case x == v:
			return i
		case x < v:
			i = 2*i + 1
		default:
			i = 2*i + 2
		}
	}
	return -1
}

// BTree searches the level-order B-tree layout (b keys per node) and
// returns the position of x, or -1. Each node is one contiguous run of b
// keys — with b matched to the cache line size, every level costs a single
// line fill, the locality that makes this the fastest query layout in the
// paper's measurements.
func BTree[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node := 0
	for {
		start := node * b
		if start >= n {
			return -1
		}
		end := start + b
		if end > n {
			end = n
		}
		c := start
		if b > 16 {
			// binary search within wide nodes
			lo, hi := start, end
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if a[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			c = lo
		} else {
			for c < end && a[c] < x {
				c++
			}
		}
		if c < end && a[c] == x {
			return c
		}
		node = node*(b+1) + 1 + (c - start)
	}
}

// VEB searches the van Emde Boas layout and returns the position of x, or
// -1. The descent walks the conceptual complete BST and converts nodes to
// array positions through layout.VEBCursor: one split-table load, a few
// shifts and one multiply-add per level, with the direction chosen
// without a branch. That keeps a vEB lookup within 2x of the B-tree's
// (BenchmarkSearch), where the paper's per-level index computation left
// it several times behind.
func VEB[T cmp.Ordered](a []T, x T) int {
	n := len(a)
	if n == 0 {
		return -1
	}
	var cur layout.VEBCursor
	layout.NewVEBNav(n).InitCursor(&cur)
	for {
		pos := cur.Pos()
		v := a[pos]
		if x == v {
			return pos
		}
		if !cur.Descend(b2i(x > v)) {
			return -1
		}
	}
}
