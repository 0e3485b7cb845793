// Package layout defines the implicit search-tree memory layouts:
// the three studied in the paper — the level-order binary search tree
// (BST), the level-order B-tree, and the van Emde Boas (vEB) layout —
// plus the page-aware two-level hierarchical layout (Hier, hier.go)
// built for mmap-backed serving, together with the index arithmetic
// needed to navigate them, reference (out-of-place) constructors that
// serve as correctness oracles for the in-place parallel permutation
// algorithms in package perm, and Write and Read (write.go), the
// in-place layout writer and reader every store build and DB run goes
// through.
//
// All trees are *complete*: every level except possibly the last is full
// and the last level is filled left to right. A layout assigns each node of
// the conceptual tree a position in a flat array; the in-order traversal of
// the tree enumerates the stored keys in sorted order. Because a layout is
// just a permutation of sorted order, every query about it is index
// arithmetic: child and parent maps (vEB navigation is packaged in VEBNav
// and its cursor), and PosOf, the in-order rank → array position map that
// gives any layout positional access in sorted order in O(log N) — the
// primitive behind search.Index's rank accessors and ordered iteration,
// and through them the store layer's sorted record streaming.
package layout

import "fmt"

// Kind identifies one of the implicit search-tree layouts.
type Kind int

const (
	// BST is the breadth-first (level-order, Eytzinger) layout of a
	// complete binary search tree: node i has children 2i+1 and 2i+2.
	BST Kind = iota
	// BTree is the breadth-first layout of a complete (B+1)-ary B-tree:
	// node m occupies positions [m*B, m*B+B) and has children
	// m*(B+1)+1+c for c in [0, B].
	BTree
	// VEB is the van Emde Boas layout: the tree is split at the middle
	// level into a top tree of ceil(L/2) levels followed by the layouts
	// of its bottom subtrees, recursively (cache-oblivious).
	VEB
	// Sorted is the identity layout (plain sorted array, binary search).
	Sorted
	// Hier is the two-level hierarchical (FAST-style) layout: page-sized
	// super-blocks arranged as an outer B-tree, each internally laid out
	// as cacheline-sized B-tree blocks — see hier.go. b is the cacheline
	// node capacity; the page capacity is HierPageKeys(b).
	Hier
)

// String returns the conventional name of the layout.
func (k Kind) String() string {
	switch k {
	case BST:
		return "bst"
	case BTree:
		return "btree"
	case VEB:
		return "veb"
	case Sorted:
		return "sorted"
	case Hier:
		return "hier"
	}
	return fmt.Sprintf("layout.Kind(%d)", int(k))
}

// DefaultB is the default B-tree node capacity: 8 keys of 8 bytes fill one
// 64-byte cache line, the configuration the paper benchmarks on CPUs.
const DefaultB = 8

// Kinds lists the four tree layouts (excluding Sorted): the paper's
// three plus the hierarchical two-level layout of hier.go.
func Kinds() []Kind { return []Kind{BST, BTree, VEB, Hier} }

// Ranks returns the rank table of the layout: r[pos] is the in-order rank
// (0-based position in sorted order) of the key stored at array position
// pos. b is the B-tree node capacity and is ignored by other layouts.
// Ranks is the reference definition of each layout; the in-place
// permutation algorithms are tested against it.
func Ranks(k Kind, n, b int) []int {
	switch k {
	case BST:
		return bstRanks(n)
	case BTree:
		return btreeRanks(n, b)
	case VEB:
		return vebRanks(n)
	case Hier:
		return hierRanks(n, b)
	case Sorted:
		r := make([]int, n)
		for i := range r {
			r[i] = i
		}
		return r
	}
	panic("layout: unknown kind")
}

// Build returns a new array holding sorted rearranged into layout k: the
// out-of-place oracle construction. b is the B-tree node capacity.
func Build[T any](k Kind, sorted []T, b int) []T {
	ranks := Ranks(k, len(sorted), b)
	out := make([]T, len(sorted))
	for pos, rk := range ranks {
		out[pos] = sorted[rk]
	}
	return out
}

// PerfectPrefix returns the largest I = k^h - 1 with I <= n, together with
// h: the number of keys on the full levels of a complete search tree with
// n keys and branching factor k (k = 2 for a BST, k = B+1 for a B-tree).
func PerfectPrefix(n, k int) (full, h int) {
	if n < 0 || k < 2 {
		panic("layout: PerfectPrefix domain error")
	}
	full, h = 0, 0
	next := k - 1
	for next <= n {
		full = next
		h++
		next = next*k + (k - 1)
	}
	return full, h
}
