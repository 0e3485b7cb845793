package search

import (
	"cmp"
	"fmt"

	"implicitlayout/layout"
)

// PredecessorBinary returns the position of the largest key <= x in the
// sorted array, or -1 if every key exceeds x.
func PredecessorBinary[T cmp.Ordered](a []T, x T) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// PredecessorBST returns the position (in the BST layout) of the largest
// key <= x, or -1. The descent tracks the last node whose key did not
// exceed x.
func PredecessorBST[T cmp.Ordered](a []T, x T) int {
	n := len(a)
	i, cand := 0, -1
	for i < n {
		if a[i] <= x {
			cand = i
			i = 2*i + 2
		} else {
			i = 2*i + 1
		}
	}
	return cand
}

// PredecessorBTree returns the position (in the B-tree layout with b keys
// per node) of the largest key <= x, or -1.
func PredecessorBTree[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node, cand := 0, -1
	for {
		start := node * b
		if start >= n {
			return cand
		}
		end := start + b
		if end > n {
			end = n
		}
		c := start
		for c < end && a[c] <= x {
			c++
		}
		if c > start {
			cand = c - 1
		}
		node = node*(b+1) + 1 + (c - start)
	}
}

// PredecessorVEB returns the position (in the vEB layout) of the largest
// key <= x, or -1.
func PredecessorVEB[T cmp.Ordered](a []T, x T) int {
	n := len(a)
	if n == 0 {
		return -1
	}
	var cur layout.VEBCursor
	layout.NewVEBNav(n).InitCursor(&cur)
	cand := -1
	for {
		pos := cur.Pos()
		dir := 0
		if a[pos] <= x {
			cand = pos
			dir = 1
		}
		if !cur.Descend(dir) {
			return cand
		}
	}
}

// Predecessor returns the position of the largest key <= x under the
// index's layout, or -1 if x precedes every key.
func (ix *Index[T]) Predecessor(x T) int {
	switch ix.kind {
	case layout.Sorted:
		return PredecessorBinary(ix.data, x)
	case layout.BST:
		return PredecessorBST(ix.data, x)
	case layout.BTree:
		return PredecessorBTree(ix.data, ix.b, x)
	case layout.VEB:
		return PredecessorVEB(ix.data, x)
	case layout.Hier:
		return PredecessorHier(ix.data, ix.b, x)
	}
	panic(fmt.Sprintf("search: unknown layout %v", ix.kind))
}
