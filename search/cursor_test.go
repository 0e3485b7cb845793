package search

import (
	"fmt"
	"testing"

	"implicitlayout/layout"
)

// cursorCases are the shapes every layout's Cursor is checked on: the
// empty and single-key trees, perfect and non-perfect binary and B-trees,
// key counts that are not a multiple of b, and hierarchical layouts of
// one partial page, several pages, and three page levels (b = 1 gives
// 64-key pages, so 4160 keys fill two levels exactly).
var cursorCases = []struct{ n, b int }{
	{0, 4}, {1, 4}, {2, 1}, {7, 1}, {15, 3}, {26, 4}, {63, 2},
	{124, 4}, {100, 7}, {255, 8}, {513, 3}, {1000, 4}, {1025, 8},
	{130, 2}, {4160, 1}, {4500, 1},
}

// checkCursor holds one layout's Cursor to the sorted keys: a full walk
// must visit every position once in key order; a Seek to x, followed by
// up to limit Nexts, must read the sorted suffix from the first key >= x;
// and a Seek issued mid-walk must restart cleanly.
func checkCursor(t *testing.T, kind layout.Kind, n, b int, seeks []uint64, limit int) {
	t.Helper()
	sorted := oddKeys(n)
	arr := sorted
	if kind != layout.Sorted {
		arr = layout.Build(kind, sorted, b)
	}
	ix := NewIndex(arr, kind, b)
	name := fmt.Sprintf("%v n=%d b=%d", kind, n, b)

	c := NewCursor(ix)
	seen := make([]bool, n)
	for r := 0; ; r++ {
		pos := c.Next()
		if pos < 0 {
			if r != n {
				t.Fatalf("%s: full walk ended after %d of %d keys", name, r, n)
			}
			break
		}
		if r >= n || seen[pos] || arr[pos] != sorted[r] {
			t.Fatalf("%s: full walk step %d read position %d, want the rank-%d key", name, r, pos, r)
		}
		seen[pos] = true
	}
	if pos := c.Next(); pos != -1 {
		t.Fatalf("%s: Next after the end = %d, want -1", name, pos)
	}

	// readFrom checks that c reads the sorted keys from rank r on.
	readFrom := func(what string, r, steps int) {
		for s := 0; s < steps; s, r = s+1, r+1 {
			pos := c.Next()
			if r >= n {
				if pos != -1 {
					t.Fatalf("%s: %s: read position %d past the largest key", name, what, pos)
				}
				return
			}
			if pos < 0 || arr[pos] != sorted[r] {
				t.Fatalf("%s: %s: step %d read position %d, want key %d", name, what, s, pos, sorted[r])
			}
		}
	}
	for j, x := range seeks {
		c.Seek(x)
		r := int(x / 2) // rank of the first key >= x: keys are 1, 3, 5, ...
		readFrom(fmt.Sprintf("Seek(%d)", x), r, limit)
		// Re-seek mid-walk, alternately behind and ahead of the cursor.
		y := seeks[(j*7+3)%len(seeks)]
		c.Seek(y)
		readFrom(fmt.Sprintf("Seek(%d) then Seek(%d)", x, y), int(y/2), 3)
	}
}

// allSeeks lists every key, every gap, and one probe past each end of
// the odd keys 1, 3, ..., 2n-1: the values 0 through 2n+1.
func allSeeks(n int) []uint64 {
	s := make([]uint64, 2*n+2)
	for i := range s {
		s[i] = uint64(i)
	}
	return s
}

// TestCursorMatchesSorted runs checkCursor over every layout and shape.
// Each seek reads on across at least one page boundary of the
// hierarchical layout, where the walk changes page.
func TestCursorMatchesSorted(t *testing.T) {
	for _, tc := range cursorCases {
		limit := 2*layout.HierPageKeys(tc.b) + 2
		for _, kind := range append([]layout.Kind{layout.Sorted}, layout.Kinds()...) {
			checkCursor(t, kind, tc.n, tc.b, allSeeks(tc.n), limit)
		}
	}
}

// FuzzIndexCursor checks, from fuzzed shapes and seek targets, that
// every layout's Cursor reads exactly the sorted suffix after a Seek.
func FuzzIndexCursor(f *testing.F) {
	for _, tc := range cursorCases {
		f.Add(uint16(tc.n), uint8(tc.b), uint32(tc.n), uint8(8))
	}
	f.Fuzz(func(t *testing.T, nRaw uint16, bRaw uint8, xRaw uint32, steps uint8) {
		n := int(nRaw) % 20000
		b := int(bRaw)%16 + 1
		x := uint64(xRaw) % uint64(2*n+2)
		// Probe x and its neighbours, one seek past each end, and the
		// keys on either side of the first page boundary.
		p := uint64(2 * layout.HierPageKeys(b))
		seeks := []uint64{x, x + 1, x - min(x, 1), 0, uint64(2*n + 1), p - 1, p, p + 1}
		for _, kind := range append([]layout.Kind{layout.Sorted}, layout.Kinds()...) {
			checkCursor(t, kind, n, b, seeks, int(steps)+1)
		}
	})
}
