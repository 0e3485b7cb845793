package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"implicitlayout/layout"
)

// oddKeys returns n sorted keys 1, 3, 5, ... so that even values are
// guaranteed misses.
func oddKeys(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(2*i + 1)
	}
	return s
}

func buildAll(n int, b int) map[layout.Kind][]uint64 {
	sorted := oddKeys(n)
	m := map[layout.Kind][]uint64{layout.Sorted: sorted}
	for _, k := range layout.Kinds() {
		m[k] = layout.Build(k, sorted, b)
	}
	return m
}

// TestFindAllPresentKeys: every key is found at the position that holds
// it, for every layout and a sweep of sizes including non-perfect ones.
func TestFindAllPresentKeys(t *testing.T) {
	const b = 3
	for _, n := range []int{1, 2, 3, 7, 8, 15, 26, 63, 64, 100, 255, 256, 1000} {
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			for i := 0; i < n; i++ {
				x := uint64(2*i + 1)
				pos := ix.Find(x)
				if pos < 0 || arr[pos] != x {
					t.Fatalf("%v n=%d: Find(%d) = %d (value %v)", kind, n, x, pos, safeAt(arr, pos))
				}
			}
		}
	}
}

func safeAt(a []uint64, i int) any {
	if i < 0 || i >= len(a) {
		return "out of range"
	}
	return a[i]
}

// TestFindMissesAbsentKeys: even values, 0, and values beyond the maximum
// all miss.
func TestFindMissesAbsentKeys(t *testing.T) {
	const b = 4
	for _, n := range []int{1, 5, 26, 100, 511, 513} {
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			for i := 0; i <= n; i++ {
				x := uint64(2 * i)
				if pos := ix.Find(x); pos != -1 {
					t.Fatalf("%v n=%d: Find(%d) = %d, want -1", kind, n, x, pos)
				}
			}
			if ix.Find(uint64(2*n+99)) != -1 {
				t.Fatalf("%v n=%d: found key beyond maximum", kind, n)
			}
		}
	}
}

// TestVariantsAgree: BST search and binary search agree on hit/miss for
// random queries, and a BST hit holds the query (property test).
func TestVariantsAgree(t *testing.T) {
	n := 1000
	sorted := oddKeys(n)
	bst := layout.Build(layout.BST, sorted, 0)
	f := func(q uint64) bool {
		q %= uint64(2*n + 2)
		hit := Binary(sorted, q) >= 0
		p := BST(bst, q)
		return (p >= 0) == hit && (!hit || bst[p] == q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeWideNodes exercises the in-node binary search path (b > 16).
func TestBTreeWideNodes(t *testing.T) {
	const b = 32
	for _, n := range []int{1, 31, 32, 33, 1000, 32*33 + 17} {
		sorted := oddKeys(n)
		arr := layout.Build(layout.BTree, sorted, b)
		for i := 0; i < n; i++ {
			x := uint64(2*i + 1)
			pos := BTree(arr, b, x)
			if pos < 0 || arr[pos] != x {
				t.Fatalf("n=%d: wide BTree Find(%d) failed", n, x)
			}
			if BTree(arr, b, x+1) != -1 {
				t.Fatalf("n=%d: wide BTree found absent %d", n, x+1)
			}
		}
	}
}

// TestVEBSearchRandomSizes fuzzes vEB search over random non-perfect sizes.
func TestVEBSearchRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(5000) + 1
		sorted := oddKeys(n)
		arr := layout.Build(layout.VEB, sorted, 0)
		for probe := 0; probe < 200; probe++ {
			i := rng.Intn(n)
			x := uint64(2*i + 1)
			pos := VEB(arr, x)
			if pos < 0 || arr[pos] != x {
				t.Fatalf("n=%d: VEB Find(%d) failed (pos=%d)", n, x, pos)
			}
			if VEB(arr, x-1) != -1 {
				t.Fatalf("n=%d: VEB found absent %d", n, x-1)
			}
		}
	}
}

// TestFindBatch counts hits correctly in serial and parallel.
func TestFindBatch(t *testing.T) {
	n := 4096
	sorted := oddKeys(n)
	arr := layout.Build(layout.BTree, sorted, 8)
	ix := NewIndex(arr, layout.BTree, 8)
	queries := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		queries = append(queries, uint64(2*i+1), uint64(2*i)) // hit, miss
	}
	for _, p := range []int{1, 2, 4, 7} {
		if hits := ix.FindBatch(queries, p); hits != n {
			t.Fatalf("p=%d: FindBatch hits = %d, want %d", p, hits, n)
		}
	}
	if hits := ix.FindBatch(nil, 4); hits != 0 {
		t.Fatalf("empty batch: hits = %d", hits)
	}
}

// TestEmptyAndSingle cover degenerate arrays.
func TestEmptyAndSingle(t *testing.T) {
	if Binary([]uint64{}, 1) != -1 || BST([]uint64{}, 1) != -1 ||
		BTree([]uint64{}, 4, 1) != -1 || VEB([]uint64{}, 1) != -1 {
		t.Fatal("searches on empty arrays must miss")
	}
	one := []uint64{42}
	for kind := range buildAll(1, 2) {
		ix := NewIndex(one, kind, 2)
		if ix.Find(42) != 0 || ix.Find(41) != -1 {
			t.Fatalf("%v: single-element search wrong", kind)
		}
	}
}
