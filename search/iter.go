package search

import (
	"cmp"
	"math/bits"

	"implicitlayout/layout"
)

// Successor returns the position of the smallest key >= x under the
// index's layout, or -1 if every key is below x.
func (ix *Index[T]) Successor(x T) int {
	c := NewCursor(ix)
	c.Seek(x)
	return c.Next()
}

func successorBinary[T cmp.Ordered](a []T, x T) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a) {
		return -1
	}
	return lo
}

// successorBTree returns the position (in the B-tree layout with b keys
// per node; b = 1 walks the BST layout) of the smallest key >= x, or -1.
// Each node's keys below x are counted by nodeRank.
func successorBTree[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node, cand := 0, -1
	for {
		start := node * b
		if start >= n {
			return cand
		}
		keys := a[start:min(start+b, n)]
		c := nodeRank(keys, x, false)
		if c < len(keys) {
			cand = start + c
		}
		node = node*(b+1) + 1 + c
	}
}

// successorVEB returns the level-order index, in the conceptual
// complete BST, of the smallest key >= x in the vEB layout, or -1.
func successorVEB[T cmp.Ordered](a []T, x T) int {
	if len(a) == 0 {
		return -1
	}
	var cur layout.VEBCursor
	layout.NewVEBNav(len(a)).InitCursor(&cur)
	for i, node := 0, -1; ; {
		dir := 1
		if a[cur.Pos()] >= x {
			node, dir = i, 0
		}
		if !cur.Descend(dir) {
			return node
		}
		i = 2*i + 1 + dir
	}
}

// Range calls yield for every key in [lo, hi], in ascending order,
// stopping early if yield returns false: one Cursor Seek to lo, then
// Next until a key passes hi — O(k + log N) node visits for k reported
// keys.
func (ix *Index[T]) Range(lo, hi T, yield func(pos int, key T) bool) {
	if hi < lo {
		return
	}
	c := NewCursor(ix)
	c.Seek(lo)
	for pos := c.Next(); pos >= 0 && ix.data[pos] <= hi; pos = c.Next() {
		if !yield(pos, ix.data[pos]) {
			return
		}
	}
}

// Scan calls yield for every key in the index, in ascending sorted
// order, stopping early if yield returns false: a full Cursor walk, O(N)
// node visits, no unpermuting, no allocation.
func (ix *Index[T]) Scan(yield func(pos int, key T) bool) {
	c := NewCursor(ix)
	for pos := c.Next(); pos >= 0; pos = c.Next() {
		if !yield(pos, ix.data[pos]) {
			return
		}
	}
}

// Cursor reads an Index in ascending key order without unpermuting it.
// Seek positions it at the smallest key >= x with one O(log N) descent;
// each Next returns the array position of the next key in key order.
//
// Every layout is walked as a level-order tree of f-key nodes: the
// conceptual complete BST (f = 1) for BST and vEB, the node tree for
// B-trees (f = b), the outer page tree for the hierarchical layout
// (f = page keys), and one node of every key for a sorted array. The
// walk keeps one slot of that tree as its node, its slot within the
// node and its level-order index, so a step sideways is two increments.
// Its root path needs no stored stack, because a level-order index
// encodes it: node m's parent is (m-1)/(f+1), which the walk computes
// with a multiply by a reciprocal fixed at NewCursor, so Next divides
// only when a hier walk enters another page. A step goes down to the
// next child's leftmost slot, sideways within the node, or up to the
// first ancestor slot not yet read, so each tree edge is crossed twice
// per full walk and a Next costs amortized O(1) node visits. Slots are positions for sorted arrays,
// BST and B-trees. vEB maps them through the layout's (depth, rank)
// navigator. Hier keeps a second walk over the current page's cacheline
// B-tree beside the first and steps both.
//
// A Cursor is a small value; it allocates nothing and must not be
// shared between goroutines (the Index it reads may be).
type Cursor[T cmp.Ordered] struct {
	ix  *Index[T]
	out walk // slot Next returns next; out.i < 0 once the walk is exhausted
	in  walk // Hier: out's key within its page
}

// NewCursor returns a cursor over ix positioned at its smallest key.
func NewCursor[T cmp.Ordered](ix *Index[T]) Cursor[T] {
	f, n := 1, len(ix.data)
	switch ix.kind {
	case layout.Sorted:
		f = max(n, 1)
	case layout.BTree:
		f = ix.b
	case layout.Hier:
		f = layout.HierPageKeys(ix.b)
	}
	c := Cursor[T]{ix: ix, out: newWalk(f)}
	if n > 0 {
		c.out.first(0, n)
	}
	if ix.kind == layout.Hier {
		c.in = newWalk(ix.b)
		c.enterPage()
	}
	return c
}

// Seek positions the cursor at the smallest key >= x; Next then returns
// it (or -1 when every key is below x). Seek may be called at any time.
func (c *Cursor[T]) Seek(x T) {
	a := c.ix.data
	switch c.ix.kind {
	case layout.Sorted:
		c.out.at(successorBinary(a, x), len(a))
	case layout.VEB:
		c.out.at(successorVEB(a, x), len(a))
	case layout.Hier:
		c.out.at(successorHier(a, c.ix.b, x), len(a))
		c.enterPage()
	default: // BST and B-tree: slots are positions
		c.out.at(successorBTree(a, c.out.f, x), len(a))
	}
}

// Next returns the array position of the key at the cursor and steps
// past it, or -1 once every key from the last Seek on has been read.
func (c *Cursor[T]) Next() int {
	i := c.out.i
	if i < 0 {
		return -1
	}
	if c.ix.kind == layout.Sorted { // one node: only the index moves
		if i+1 < len(c.ix.data) {
			c.out.i = i + 1
		} else {
			c.out.i = -1
		}
		return i
	}
	n := len(c.ix.data)
	switch c.ix.kind {
	case layout.VEB:
		c.out.next(n)
		d := bits.Len(uint(i)+1) - 1
		return layout.NewVEBNav(n).Pos(d, i+1-1<<d)
	case layout.Hier:
		start, page := i-c.out.s, c.out.m
		pos, pk := start+c.in.i, min(c.out.f, n-start)
		if c.out.next(n) && c.out.m == page { // same page: step its cacheline tree
			c.in.next(pk)
		} else {
			c.enterPage()
		}
		return pos
	}
	c.out.next(n)
	return i
}

// enterPage points the in-page walk of a Hier cursor at the key of the
// outer slot, whose in-page rank is the outer slot within its node.
func (c *Cursor[T]) enterPage() {
	if c.out.i < 0 {
		return
	}
	pk := min(c.out.f, len(c.ix.data)-(c.out.i-c.out.s))
	c.in.at(layout.BTreePos(c.out.s, pk, c.ix.b), pk)
}

// walk is one slot of a level-order tree of f-key nodes: slot s of node
// m, at level-order index i = m·f+s (-1 past the last slot). It carries
// the reciprocal of the fanout f+1 that lets it climb without dividing.
// A node with children is full, so only the last node can be short.
type walk struct {
	m, s, i, f int
	kids       bool   // node m has children
	r          uint64 // ⌈2^64/(f+1)⌉: see parent
}

func newWalk(f int) walk {
	return walk{m: -1, i: -1, f: f, r: ^uint64(0)/uint64(f+1) + 1}
}

// at moves w to slot i of a tree of n keys (-1: past the last slot).
func (w *walk) at(i, n int) {
	w.m, w.s, w.i = -1, 0, i
	if i >= 0 {
		w.m, w.s = i/w.f, i%w.f
		w.kids = (w.m*(w.f+1)+1)*w.f < n
	}
}

// first moves w to the leftmost slot of node m's subtree in a tree of n
// keys: a node whose leftmost child is absent has no children.
func (w *walk) first(m, n int) {
	for c := m*(w.f+1) + 1; c*w.f < n; c = c*(w.f+1) + 1 {
		m = c
	}
	w.m, w.s, w.i, w.kids = m, 0, m*w.f, false
}

// next moves w to its in-order successor in a tree of n keys, and
// reports false (leaving w.i = -1) when w was at the last slot. Most
// slots sit in leaves, where the step is an increment.
func (w *walk) next(n int) bool {
	if !w.kids && w.s+1 < w.f && w.i+1 < n {
		w.s++
		w.i++
		return true
	}
	return w.climbOrDescend(n)
}

func (w *walk) climbOrDescend(n int) bool {
	m, s, f := w.m, w.s, w.f
	if w.kids {
		if c := m*(f+1) + 2 + s; c*f < n { // child right of slot s
			w.first(c, n)
			return true
		}
		if s+1 < f { // the last internal node can lack its right children
			w.s++
			w.i++
			return true
		}
	}
	for m > 0 { // climb to the first ancestor entered by a child left of a key
		p := w.parent(m)
		if c := m - 1 - p*(f+1); c < f {
			w.m, w.s, w.i, w.kids = p, c, p*f+c, true
			return true
		}
		m = p
	}
	w.m, w.i = -1, -1
	return false
}

// parent returns the parent of node m > 0: (m-1)/(f+1) as the high word
// of (m-1)·r. With r = ⌈2^64/(f+1)⌉ the product overshoots (m-1)/(f+1)
// by less than (m-1)/2^64, which stays below the 1/(f+1) gap to the next
// integer whenever (m-1)·(f+1) < 2^64 — true of every node of a tree
// that fits in memory.
func (w *walk) parent(m int) int {
	hi, _ := bits.Mul64(uint64(m-1), w.r)
	return int(hi)
}
