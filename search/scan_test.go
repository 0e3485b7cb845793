package search

import (
	"fmt"
	"reflect"
	"testing"

	"implicitlayout/layout"
)

// TestScanEnumeratesAllInOrder: Scan yields every key exactly once, in
// ascending order, at a position that really holds it, on every layout
// and a sweep of sizes including non-perfect ones.
func TestScanEnumeratesAllInOrder(t *testing.T) {
	const b = 4
	for _, n := range []int{0, 1, 2, 5, 7, 26, 100, 511, 512, 1000} {
		sorted := oddKeys(n)
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			var got []uint64
			ix.Scan(func(pos int, key uint64) bool {
				if arr[pos] != key {
					t.Fatalf("%v n=%d: yielded pos %d does not hold %d", kind, n, pos, key)
				}
				got = append(got, key)
				return true
			})
			if !reflect.DeepEqual(got, sorted) && !(len(got) == 0 && n == 0) {
				t.Fatalf("%v n=%d:\n got %v\nwant %v", kind, n, got, sorted)
			}
		}
	}
}

// TestScanEarlyStop: yield returning false stops the scan immediately.
func TestScanEarlyStop(t *testing.T) {
	const n = 1000
	for kind, arr := range buildAll(n, 4) {
		ix := NewIndex(arr, kind, 4)
		count := 0
		ix.Scan(func(int, uint64) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Fatalf("%v: early stop yielded %d keys, want 5", kind, count)
		}
	}
}

// TestRankAccessors: PosOfRank inverts the layout permutation rank by
// rank, and AtRank returns the rank-th smallest key.
func TestRankAccessors(t *testing.T) {
	const b = 3
	for _, n := range []int{1, 2, 7, 26, 100, 513} {
		sorted := oddKeys(n)
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			for r := 0; r < n; r++ {
				if got := ix.AtRank(r); got != sorted[r] {
					t.Fatalf("%v n=%d: AtRank(%d) = %d, want %d", kind, n, r, got, sorted[r])
				}
				if pos := ix.PosOfRank(r); arr[pos] != sorted[r] {
					t.Fatalf("%v n=%d: PosOfRank(%d) = %d holds %d", kind, n, r, pos, arr[pos])
				}
			}
		}
	}
}

// TestBSTIndexGenericTypesLarge: Index.Find on a BST of at least 2^15
// keys gives the same answers as Binary on the sorted keys, for string
// and int32 keys (negatives included), hits and misses alike.
func TestBSTIndexGenericTypesLarge(t *testing.T) {
	const n = 1 << 15
	sortedStr := make([]string, n)
	for i := range sortedStr {
		sortedStr[i] = fmt.Sprintf("key-%06d", 2*i+1)
	}
	ixStr := NewIndex(layout.Build(layout.BST, sortedStr, 0), layout.BST, 0)
	for i := 0; i < 2*n+2; i += 7 {
		q := fmt.Sprintf("key-%06d", i)
		got, want := ixStr.Find(q), Binary(sortedStr, q)
		if (got >= 0) != (want >= 0) || (got >= 0 && ixStr.At(got) != q) {
			t.Fatalf("string key %q: Index.Find %d, Binary %d", q, got, want)
		}
	}

	sortedI := make([]int32, n)
	for i := range sortedI {
		sortedI[i] = int32(3*i) - n // negatives included
	}
	ixI := NewIndex(layout.Build(layout.BST, sortedI, 0), layout.BST, 0)
	for q := int32(-n - 10); q < 2*n+10; q += 5 {
		got, want := ixI.Find(q), Binary(sortedI, q)
		if (got >= 0) != (want >= 0) || (got >= 0 && ixI.At(got) != q) {
			t.Fatalf("int32 key %d: Index.Find %d, Binary %d", q, got, want)
		}
	}
}
