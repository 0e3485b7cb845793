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

func successorBTree[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node, cand := 0, -1
	for {
		start := node * b
		if start >= n {
			return cand
		}
		end := min(start+b, n)
		c := start
		for c < end && a[c] < x {
			c++
		}
		if c < end {
			cand = c
		}
		node = node*(b+1) + 1 + (c - start)
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
// B-trees (f = b), and the outer page tree for the hierarchical layout
// (f = page keys). The walk keeps one slot of that tree. Its root path
// needs no stored stack, because a level-order index encodes it: node
// m's parent is (m-1)/(f+1). A step goes down to the next child's
// leftmost slot, sideways within the node, or up to the first ancestor
// slot not yet read, so each tree edge is crossed twice per full walk
// and a Next costs amortized O(1) node visits. Slots map to positions
// directly for BST and B-trees. vEB maps them through the layout's
// (depth, rank) navigator. Hier keeps the slot's in-page position
// beside it and steps that with the same walk over the page's
// cacheline B-tree.
//
// A Cursor is a small value; it allocates nothing and must not be
// shared between goroutines (the Index it reads may be).
type Cursor[T cmp.Ordered] struct {
	ix *Index[T]
	f  int // keys per node of the walked tree
	i  int // slot Next returns next; -1 once the walk is exhausted
	w  int // Hier: in-page position of slot i
}

// NewCursor returns a cursor over ix positioned at its smallest key.
func NewCursor[T cmp.Ordered](ix *Index[T]) Cursor[T] {
	c := Cursor[T]{ix: ix, f: 1, i: -1}
	n := len(ix.data)
	switch ix.kind {
	case layout.Sorted:
		c.f = max(n, 1) // a sorted array is one node holding every key
	case layout.BTree:
		c.f = ix.b
	case layout.Hier:
		c.f = layout.HierPageKeys(ix.b)
	}
	if n > 0 {
		c.at(btFirst(0, n, c.f))
	}
	return c
}

// Seek positions the cursor at the smallest key >= x; Next then returns
// it (or -1 when every key is below x). Seek may be called at any time.
func (c *Cursor[T]) Seek(x T) {
	a := c.ix.data
	switch c.ix.kind {
	case layout.Sorted:
		c.i = successorBinary(a, x)
	case layout.VEB:
		c.i = successorVEB(a, x)
	case layout.Hier:
		c.i = successorHier(a, c.ix.b, x)
	default: // BST and B-tree: slots are positions
		c.i = successorBTree(a, c.f, x)
	}
	c.at(c.i)
}

// Next returns the array position of the key at the cursor and steps
// past it, or -1 once every key from the last Seek on has been read.
func (c *Cursor[T]) Next() int {
	i, n := c.i, len(c.ix.data)
	if i < 0 {
		return -1
	}
	if c.ix.kind == layout.Sorted {
		c.i++
		if c.i == n {
			c.i = -1
		}
		return i
	}
	c.i = btNext(i, n, c.f)
	switch c.ix.kind {
	case layout.VEB:
		d := bits.Len(uint(i)+1) - 1
		return layout.NewVEBNav(n).Pos(d, i+1-1<<d)
	case layout.Hier:
		page := i - i%c.f
		pos := page + c.w
		if c.i >= 0 && c.i/c.f == i/c.f { // same page: step its cacheline tree
			c.w = btNext(c.w, min(c.f, n-page), c.ix.b)
		} else {
			c.at(c.i)
		}
		return pos
	}
	return i
}

// at moves the cursor to slot i, deriving a Hier slot's in-page
// position from its in-page rank.
func (c *Cursor[T]) at(i int) {
	c.i = i
	if c.ix.kind == layout.Hier && i >= 0 {
		page := i - i%c.f
		c.w = layout.BTreePos(i-page, min(c.f, len(c.ix.data)-page), c.ix.b)
	}
}

// btFirst returns the leftmost slot of node m's subtree in a level-order
// tree of n keys, f per node.
func btFirst(m, n, f int) int {
	for c := m*(f+1) + 1; c*f < n; c = c*(f+1) + 1 {
		m = c
	}
	return m * f
}

// btNext returns the in-order successor of slot i in a level-order tree
// of n keys, f per node, or -1 if i is the last slot. A node with
// children is full, so only the last node can be short.
func btNext(i, n, f int) int {
	m, s := i/f, i%f
	if c := m*(f+1) + 2 + s; c*f < n { // child right of slot s
		return btFirst(c, n, f)
	}
	if s+1 < f && i+1 < n {
		return i + 1
	}
	for m > 0 { // climb to the first ancestor entered by a child left of a key
		p := (m - 1) / (f + 1)
		if c := m - 1 - p*(f+1); c < f {
			return p*f + c
		}
		m = p
	}
	return -1
}
