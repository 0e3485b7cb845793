package search

import (
	"cmp"
	"runtime"

	"implicitlayout/layout"
)

// This file holds the query kernels for the two-level hierarchical
// (FAST-style) layout of layout/hier.go. A descent works at two miss
// granularities: the outer loop walks page-sized super-blocks — one
// page fault per level when the array is a cold file mapping — and
// within each page an inner loop walks cacheline-sized B-tree blocks.
// The outer child index is recovered from the within-page successor by
// layout.BTreeRank, so no rank table is materialized anywhere.

// hierPageSucc returns the array position of the smallest key >= x
// within the page block [pageStart, pageStart+pk), or -1 if every page
// key is below x. The page is laid out as a level-order B-tree with b
// keys per block, so the scan is a standard multi-way descent over the
// page's cache lines.
func hierPageSucc[T cmp.Ordered](a []T, pageStart, pk, b int, x T) int {
	node, at := 0, -1
	for {
		start := node * b
		if start >= pk {
			return at
		}
		end := min(start+b, pk)
		c := start
		for c < end && a[pageStart+c] < x {
			c++
		}
		if c < end {
			at = pageStart + c
		}
		node = node*(b+1) + 1 + (c - start)
	}
}

// hierPagePred returns the array position of the largest key <= x
// within the page block [pageStart, pageStart+pk), or -1 if every page
// key exceeds x.
func hierPagePred[T cmp.Ordered](a []T, pageStart, pk, b int, x T) int {
	node, at := 0, -1
	for {
		start := node * b
		if start >= pk {
			return at
		}
		end := min(start+b, pk)
		c := start
		for c < end && a[pageStart+c] <= x {
			c++
		}
		if c > start {
			at = pageStart + c - 1
		}
		node = node*(b+1) + 1 + (c - start)
	}
}

// Hier searches the two-level hierarchical layout (cacheline node
// capacity b, page capacity layout.HierPageKeys(b)) and returns the
// position of x, or -1. Each outer step resolves one page: the page's
// inner B-tree is descended for the smallest key >= x, whose in-page
// rank — recovered arithmetically by layout.BTreeRank — is exactly the
// outer child to descend into when x is absent from the page.
func Hier[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	if n == 0 {
		return -1
	}
	p := layout.HierPageKeys(b)
	node := 0
	for {
		pageStart := node * p
		if pageStart >= n {
			return -1
		}
		pk := min(p, n-pageStart)
		at := hierPageSucc(a, pageStart, pk, b, x)
		c := pk
		if at >= 0 {
			if a[at] == x {
				return at
			}
			c = layout.BTreeRank(at-pageStart, pk, b)
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
		at := hierPagePred(a, pageStart, pk, b, x)
		c := 0
		if at >= 0 {
			cand = at
			c = layout.BTreeRank(at-pageStart, pk, b) + 1
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
		at := hierPageSucc(a, pageStart, pk, b, x)
		c := pk
		if at >= 0 {
			c = layout.BTreeRank(at-pageStart, pk, b)
			slot = pageStart + c
		}
		node = node*(p+1) + 1 + c
	}
}

// hierMach is one in-flight hierarchical search: the query, the outer
// page node about to be resolved, and the accumulated answer. One ring
// rotation resolves one whole page — a handful of cacheline-resident
// block scans — and issues the first line of the chosen child page
// before rotating away, so a cold page's fetch overlaps the other
// machines' in-page work.
type hierMach[T cmp.Ordered] struct {
	q    T
	node int
	res  int
	done bool
}

// HierBatch answers many independent queries against the hierarchical
// layout with a ring of interleaved page-granular descents. Results
// match Hier per query; pos may be nil.
func HierBatch[T cmp.Ordered](a []T, b int, queries []T, pos []int) int {
	return hierBatchRing(a, b, queries, pos, batchRing)
}

func hierBatchRing[T cmp.Ordered](a []T, b int, queries []T, pos []int, ring int) (hits int) {
	n := len(a)
	if len(queries) == 0 {
		return 0
	}
	if n == 0 || b < 1 {
		for i := range queries {
			if pos != nil {
				pos[i] = -1
			}
		}
		return 0
	}
	if ring < 1 {
		ring = 1
	}
	p := layout.HierPageKeys(b)
	ms := make([]hierMach[T], ring)
	// warm sinks the early loads of chosen child pages: their values are
	// consumed only on the next rotation's in-page scan, so the running
	// maximum keeps the loads observable (see BSTPrefetch).
	var warm T
	for base := 0; base < len(queries); base += ring {
		g := min(ring, len(queries)-base)
		for s := 0; s < g; s++ {
			ms[s] = hierMach[T]{q: queries[base+s], res: -1}
		}
		// A complete outer tree's descents differ by at most one page
		// level, so the done flag costs one predictable branch per
		// machine for the last rotation or two.
		for live := g; live > 0; {
			for s := 0; s < g; s++ {
				m := &ms[s]
				if m.done {
					continue
				}
				pageStart := m.node * p
				if pageStart >= n {
					m.done = true
					live--
					continue
				}
				pk := min(p, n-pageStart)
				at := hierPageSucc(a, pageStart, pk, b, m.q)
				c := pk
				if at >= 0 {
					if a[at] == m.q {
						m.res = at
						m.done = true
						live--
						continue
					}
					c = layout.BTreeRank(at-pageStart, pk, b)
				}
				m.node = m.node*(p+1) + 1 + c
				if j := m.node * p; j < n {
					if warm < a[j] { // pull the child page's first line
						warm = a[j]
					}
				}
			}
		}
		for s := 0; s < g; s++ {
			m := &ms[s]
			if m.res >= 0 {
				hits++
			}
			if pos != nil {
				pos[base+s] = m.res
			}
		}
	}
	runtime.KeepAlive(warm)
	return hits
}
