package layout

import "implicitlayout/internal/bits"

// VEBSplit returns the level split used by the van Emde Boas layout for a
// tree with L levels: the top tree keeps Lt = ceil(L/2) levels and every
// bottom subtree the remaining L - Lt levels. This matches Section 3.1:
// for N = 2^(2x)-1 the top and bottom sizes are r = l = 2^x - 1, and for
// N = 2^(2x-1)-1 they are r = 2^x - 1, l = 2^(x-1) - 1.
func VEBSplit(levels int) (top, bottom int) {
	top = (levels + 1) / 2
	return top, levels - top
}

// vebBottoms describes the bottom subtrees of one vEB decomposition step
// of a complete tree with n nodes and L = Levels(n) levels.
type vebBottoms struct {
	topN int // nodes in the (always perfect) top tree
	base int // full-part size of each bottom: 2^(Lb-1) - 1
	cap  int // last-level capacity of each bottom: 2^(Lb-1)
	w    int // nodes on the (possibly partial) last level of the tree
	lb   int // bottom levels (including the partial level)
}

func vebDecompose(n, levels int) vebBottoms {
	lt, lb := VEBSplit(levels)
	return vebBottoms{
		topN: 1<<uint(lt) - 1,
		base: 1<<uint(lb-1) - 1,
		cap:  1 << uint(lb-1),
		w:    n - (1<<uint(levels-1) - 1),
		lb:   lb,
	}
}

// size returns the node count of bottom subtree j (0-based), and sizeSum
// the total node count of bottoms 0..j-1. The last level distributes left
// to right, so bottom j receives clamp(w - j*cap, 0, cap) of its nodes.
func (d vebBottoms) size(j int) int {
	return d.base + clamp(d.w-j*d.cap, 0, d.cap)
}

func (d vebBottoms) sizeSum(j int) int {
	return j*d.base + min(d.w, j*d.cap)
}

// vebRanks computes the in-order rank stored at every position of the vEB
// layout of a complete tree with n nodes. The layout is the top tree's
// layout followed by each bottom subtree's layout; the in-order sequence
// interleaves bottoms and top keys: B_0, t_0, B_1, t_1, ..., B_topN.
func vebRanks(n int) []int {
	ranks := make([]int, n)
	var fill func(out []int, n int, rankOff func(local int) int)
	fill = func(out []int, n int, rankOff func(local int) int) {
		if n == 0 {
			return
		}
		if n == 1 {
			out[0] = rankOff(0)
			return
		}
		d := vebDecompose(n, bits.Levels(n))
		// Top tree: its i-th smallest key has global local-rank
		// sizeSum(i+1) + i (all keys of bottoms 0..i plus i top keys).
		fill(out[:d.topN], d.topN, func(i int) int {
			return rankOff(d.sizeSum(i+1) + i)
		})
		off := d.topN
		for j := 0; off < n; j++ {
			sj := d.size(j)
			if sj == 0 {
				break
			}
			base := d.sizeSum(j) + j
			fill(out[off:off+sj], sj, func(x int) int { return rankOff(base + x) })
			off += sj
		}
	}
	fill(ranks, n, func(i int) int { return i })
	return ranks
}

// VEBNav navigates a vEB-laid-out array of n nodes: it converts a node of
// the conceptual complete binary tree, identified by (depth, rank) with
// rank counted within the level, to its position in the layout array.
type VEBNav struct{ n int }

// NewVEBNav returns a navigator for a vEB layout of n nodes.
func NewVEBNav(n int) VEBNav { return VEBNav{n: n} }

// Exists reports whether node (depth, rank) exists in the complete tree:
// its breadth-first index 2^depth - 1 + rank must be below n.
func (nav VEBNav) Exists(depth, rank int) bool {
	return depth >= 0 && rank >= 0 && rank < 1<<uint(depth) &&
		(1<<uint(depth)-1)+rank < nav.n
}

// Pos returns the array position of node (depth, rank). It walks the
// recursive decomposition top-down, carrying the current subtree's offset,
// level count h and last-level node count w: each step halves h for a
// few shifts and one multiply-add (vebBottom), so a position costs
// O(log log n) such steps. Root-to-leaf descents use VEBCursor instead,
// which pays O(1) per level.
func (nav VEBNav) Pos(depth, rank int) int {
	if !nav.Exists(depth, rank) {
		panic("layout: VEBNav.Pos of non-existent node")
	}
	off, h := 0, bits.Levels(nav.n)
	w := nav.n - (1<<uint(h-1) - 1)
	for depth > 0 {
		lt, lb := VEBSplit(h)
		if depth < lt {
			// The node lies in the perfect top tree, laid out first.
			h, w = lt, 1<<uint(lt-1)
			continue
		}
		depth -= lt
		j := rank >> uint(depth)
		rank &= 1<<uint(depth) - 1
		var o int
		o, h, w = vebBottom(lt, lb, w, j)
		off += o
	}
	return off
}

// vebBottom returns the offset of bottom subtree j within a vEB frame of
// lt top levels and lb bottom levels whose last level holds wf nodes
// (wf may lie outside [0, 2^(lt+lb-1)]; it is clamped), and that
// bottom's level count and last-level node count. The last level fills
// left to right, so each earlier bottom holds 2^(lb-1) - 1 full-part
// nodes plus its share of wf. A bottom whose share is empty is a perfect
// tree of lb - 1 levels.
func vebBottom(lt, lb, wf, j int) (off, h, w int) {
	c := 1 << uint(lb-1)
	off = 1<<uint(lt) - 1 + j*(c-1) + clamp(wf, 0, j*c)
	if s := wf - j*c; s > 0 {
		return off, lb, min(s, c)
	}
	return off, lb - 1, c >> 1
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
