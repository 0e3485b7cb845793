package search

import (
	"cmp"

	"implicitlayout/layout"
)

// This file holds the query kernels for the two-level hierarchical
// (FAST-style) layout of layout/hier.go. A descent works at two miss
// granularities: the outer loop walks page-sized super-blocks — one
// page fault per level when the array is a cold file mapping — and
// within each page the B-tree kernels walk the page's cacheline-sized
// blocks, run on the page's subslice a[pageStart:pageStart+pk]. The
// outer child index is recovered from the within-page answer by
// layout.BTreeRank, so no rank table is materialized anywhere.

// Hier searches the two-level hierarchical layout (cacheline node
// capacity b, page capacity layout.HierPageKeys(b)) and returns the
// position of x, or -1. Each outer step resolves one page: the page's
// inner B-tree is descended for the smallest key >= x, whose in-page
// rank — recovered arithmetically by layout.BTreeRank — is exactly the
// outer child to descend into when x is absent from the page.
func Hier[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	p := layout.HierPageKeys(b)
	node := 0
	for {
		pageStart := node * p
		if pageStart >= n {
			return -1
		}
		pk := min(p, n-pageStart)
		page := a[pageStart : pageStart+pk]
		c := pk
		if at := successorBTree(page, b, x); at >= 0 {
			if page[at] == x {
				return pageStart + at
			}
			c = layout.BTreeRank(at, pk, b)
		}
		node = node*(p+1) + 1 + c
	}
}

// PredecessorHier returns the position (in the hierarchical layout with
// cacheline capacity b) of the largest key <= x, or -1. Deeper pages on
// the descent path hold keys between the current candidate and its
// in-order successor, so overwriting the candidate per page keeps the
// largest.
func PredecessorHier[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	p := layout.HierPageKeys(b)
	node, cand := 0, -1
	for {
		pageStart := node * p
		if pageStart >= n {
			return cand
		}
		pk := min(p, n-pageStart)
		c := 0
		if at := PredecessorBTree(a[pageStart:pageStart+pk], b, x); at >= 0 {
			cand = pageStart + at
			c = layout.BTreeRank(at, pk, b) + 1
		}
		node = node*(p+1) + 1 + c
	}
}

// successorHier returns the outer slot (page start plus in-page rank)
// of the smallest key >= x in the hierarchical layout, or -1 if every
// key is below x.
func successorHier[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	p := layout.HierPageKeys(b)
	node, slot := 0, -1
	for {
		pageStart := node * p
		if pageStart >= n {
			return slot
		}
		pk := min(p, n-pageStart)
		c := pk
		if at := successorBTree(a[pageStart:pageStart+pk], b, x); at >= 0 {
			c = layout.BTreeRank(at, pk, b)
			slot = pageStart + c
		}
		node = node*(p+1) + 1 + c
	}
}
