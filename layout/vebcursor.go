package layout

import "math/bits"

// vebSplit is the decomposition frame in which one depth of a tree starts
// a bottom subtree: the frame's top levels lt and bottom levels lb, so
// the frame spans depths [d-lt, d+lb).
type vebSplit struct{ lt, lb uint8 }

// vebSplits[h][d], for a tree of h levels and depth 1 <= d < h, is the
// frame in which depth d starts a bottom. The recursive split depends on
// h alone (VEBSplit), so this one 8 KiB table serves every n; h <= 63
// covers every int.
var vebSplits = func() (t [64][64]vebSplit) {
	var fill func(h, top, levels int)
	fill = func(h, top, levels int) {
		if levels < 2 {
			return
		}
		lt, lb := VEBSplit(levels)
		t[h][top+lt] = vebSplit{uint8(lt), uint8(lb)}
		fill(h, top, lt)
		fill(h, top+lt, lb)
	}
	for h := 1; h < len(t); h++ {
		fill(h, 0, h)
	}
	return t
}()

// VEBCursor performs a root-to-leaf descent through a vEB layout with
// O(1) arithmetic per level. It keeps the positions of the current node's
// ancestors; a child at depth d starts a bottom of the frame rooted at
// its ancestor at depth d-lt (vebSplits), so its position is that
// ancestor's, plus the frame's top tree, plus the bottoms before it: a
// table load, a few shifts and one multiply-add. Frames that end on a
// partial last level add the earlier bottoms' share of it (vebBottom).
// When a bottom's share is empty it is a perfect tree with its own split,
// and the cursor re-roots on it; that happens at most once per path.
//
// A cursor is 560 bytes on 64-bit platforms, most of it the ancestor
// positions; hot loops initialise one in place with InitCursor rather
// than copy it. The zero value is not usable.
type VEBCursor struct {
	n           int
	h, w        int // levels and last-level node count of the walked tree
	depth, rank int // the current node, within the walked tree
	tab         *[64]vebSplit
	pos         [64]int // positions of the current node's ancestors by depth
}

// Cursor returns a cursor positioned at the root.
func (nav VEBNav) Cursor() VEBCursor {
	var c VEBCursor
	nav.InitCursor(&c)
	return c
}

// InitCursor positions c at the root of nav's layout.
func (nav VEBNav) InitCursor(c *VEBCursor) {
	c.n = nav.n
	c.Reset()
}

// Reset repositions the cursor at the root.
func (c *VEBCursor) Reset() {
	h := bits.Len(uint(c.n))
	c.root(0, h, c.n-(1<<uint(h-1)-1))
}

// root makes the node at position p the root of the walked tree, which
// has h levels and w nodes on its last.
func (c *VEBCursor) root(p, h, w int) {
	c.h, c.w, c.tab = h, w, &vebSplits[h]
	c.depth, c.rank, c.pos[0] = 0, 0, p
}

// Pos returns the array position of the current node.
func (c *VEBCursor) Pos() int { return c.pos[c.depth] }

// Descend moves to the left (dir 0) or right (dir 1) child and reports
// whether that child exists in the complete tree.
func (c *VEBCursor) Descend(dir int) bool {
	d, r := c.depth+1, 2*c.rank+dir
	if d >= c.h || d == c.h-1 && r >= c.w {
		return false
	}
	s := c.tab[d]
	lt, lb := uint(s.lt), uint(s.lb)
	j := r & (1<<lt - 1) // the child's bottom within the frame
	p := c.pos[d-int(lt)]
	if d+int(lb) < c.h {
		// The frame ends above the last level: its bottoms are perfect.
		p += 1<<lt - 1 + j*(1<<lb-1)
	} else {
		// A bottom with no share of the last level is a perfect tree with
		// its own split: the walk re-roots on it.
		o, h, w := vebBottom(int(lt), int(lb), c.w-(r>>lt)<<(lt+lb-1), j)
		if p += o; h < int(lb) {
			c.root(p, h, w)
			return true
		}
	}
	c.depth, c.rank, c.pos[d] = d, r, p
	return true
}
