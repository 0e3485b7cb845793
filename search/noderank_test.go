package search

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"

	"implicitlayout/layout"
)

// The B-tree kernels as they were before nodeRank: each node is scanned
// from its first key and left at the first key >= x (> x for the
// predecessor), and Find returns at the first match on the path. They
// are the oracle TestBTreeNodeRank holds the branch-free kernels to,
// position for position.

func scanFind[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node := 0
	for {
		start := node * b
		if start >= n {
			return -1
		}
		end := min(start+b, n)
		c := start
		if b > 16 {
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

func scanSuccessor[T cmp.Ordered](a []T, b int, x T) int {
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

func scanPredecessor[T cmp.Ordered](a []T, b int, x T) int {
	n := len(a)
	node, cand := 0, -1
	for {
		start := node * b
		if start >= n {
			return cand
		}
		end := min(start+b, n)
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

// nodeRankSizes returns the key counts a B-tree of b keys per node is
// checked at: one short of, exactly at and one past each perfect size
// (b+1)^h - 1, and counts that leave the last node partial.
func nodeRankSizes(b int) []int {
	var ns []int
	for p := b + 1; p <= 3000; p *= b + 1 {
		ns = append(ns, p-2, p-1, p)
	}
	for _, k := range []int{1, 5, 40} {
		ns = append(ns, k*b+b/2+1, k*b+b-1)
	}
	return slices.DeleteFunc(ns, func(n int) bool { return n < 1 })
}

// checkNodeRank lays sorted out as a B-tree of b keys per node and asks
// BTree, successorBTree and PredecessorBTree about every query: each
// must return the oracle scan's position, and a key equal to the one
// binary search on sorted finds.
func checkNodeRank[T cmp.Ordered](t *testing.T, what string, sorted []T, b int, qs []T) {
	t.Helper()
	arr := layout.Build(layout.BTree, sorted, b)
	n := len(sorted)
	for _, q := range qs {
		name := fmt.Sprintf("%s n=%d b=%d q=%v", what, n, b, q)
		lo := sort.Search(n, func(i int) bool { return sorted[i] >= q })
		hi := sort.Search(n, func(i int) bool { return sorted[i] > q })

		got, want := BTree(arr, b, q), scanFind(arr, b, q)
		if got != want {
			t.Fatalf("%s: BTree = %d, scan oracle %d", name, got, want)
		}
		if (got >= 0) != (lo < hi) || (got >= 0 && arr[got] != q) {
			t.Fatalf("%s: BTree = %d, binary search finds %d copies", name, got, hi-lo)
		}
		got, want = successorBTree(arr, b, q), scanSuccessor(arr, b, q)
		if got != want {
			t.Fatalf("%s: successorBTree = %d, scan oracle %d", name, got, want)
		}
		if (got >= 0) != (lo < n) || (got >= 0 && arr[got] != sorted[lo]) {
			t.Fatalf("%s: successorBTree = %d, binary search rank %d", name, got, lo)
		}
		got, want = PredecessorBTree(arr, b, q), scanPredecessor(arr, b, q)
		if got != want {
			t.Fatalf("%s: PredecessorBTree = %d, scan oracle %d", name, got, want)
		}
		if (got >= 0) != (hi > 0) || (got >= 0 && arr[got] != sorted[hi-1]) {
			t.Fatalf("%s: PredecessorBTree = %d, binary search rank %d", name, got, hi-1)
		}
	}
}

// TestBTreeNodeRank holds the branch-free B-tree kernels to the scans
// they replaced and to binary search: node capacities on both sides of
// the unrolled 8-key node and of the 16-key binary-search threshold,
// perfect, near-perfect and partial trees, duplicate keys (the runs a
// KeepAll build lays out, where the first match on the path must still
// win), float keys with both zeros, and string keys.
func TestBTreeNodeRank(t *testing.T) {
	for _, b := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
		for _, n := range nodeRankSizes(b) {
			keys := oddKeys(n)
			qs := allSeeks(n)
			checkNodeRank(t, "distinct", keys, b, qs)
			// Runs of 1 to 4 copies of each key.
			dups := make([]uint64, 0, n)
			for k := uint64(1); len(dups) < n; k += 2 {
				for range min(int(k*2654435761>>7)%4+1, n-len(dups)) {
					dups = append(dups, k)
				}
			}
			checkNodeRank(t, "duplicates", dups, b, allSeeks(int(dups[n-1]/2)+1))
			// One key repeated through whole nodes.
			same := make([]uint64, n)
			for i := range same {
				same[i] = 5
			}
			checkNodeRank(t, "one key", same, b, []uint64{4, 5, 6})
		}
	}

	zeros := []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, 3.5, math.Inf(1)}
	floats := []float64{-3, -2.5, -1, -0.5, 0.5, 1, 2, 3.5, 4}
	floats = append(floats, zeros...)
	for _, b := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
		for n := 1; n <= len(zeros); n++ {
			sorted := slices.Clone(zeros[:n])
			slices.Sort(sorted) // -0 and +0 compare equal: either order is sorted
			checkNodeRank(t, "float ±0", sorted, b, floats)
		}
	}

	r := rand.New(rand.NewPCG(3, 4))
	for _, b := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
		for _, n := range []int{b, 8*b + 3, 81*b - 1, 600} {
			strs := make([]string, n)
			for i := range strs {
				strs[i] = strconv.FormatUint(r.Uint64()>>uint(r.IntN(64)), 10)
			}
			strs[n/2] = strs[0] // at least one duplicate
			slices.Sort(strs)
			qs := append(slices.Clone(strs), "", "~", "0", "5")
			for _, s := range strs[:min(n, 50)] {
				qs = append(qs, s+"0", s[:len(s)-1])
			}
			checkNodeRank(t, "strings", strs, b, qs)
		}
	}
}

// TestWalkParent checks the cursor's division-free climb against
// integer division, at every fanout up to a hier page of 16-key lines
// and at node indices up to 2^52.
func TestWalkParent(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for f := 1; f <= layout.HierPageKeys(16); f++ {
		w := newWalk(f)
		for j := 0; j < 64; j++ {
			m := 1 + j
			if j >= 32 {
				m = 1 + int(r.Uint64()>>(12+uint(r.IntN(52))))
			}
			if bits.Len(uint(m))+bits.Len(uint(f+1)) > 63 {
				continue
			}
			if got, want := w.parent(m), (m-1)/(f+1); got != want {
				t.Fatalf("f=%d: parent(%d) = %d, want %d", f, m, got, want)
			}
		}
	}
}
