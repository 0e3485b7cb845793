package search

import (
	"testing"

	"implicitlayout/layout"
)

// TestVEBQueriesAllocFree pins every vEB descent at zero allocations:
// the cursor, with its ancestor positions, must stay on the stack. The
// size leaves the last level partly full, so descents take the
// partial-frame arithmetic and the re-root as well as the perfect path.
func TestVEBQueriesAllocFree(t *testing.T) {
	n := 3<<10 + 5
	ix := NewIndex(layout.Build(layout.VEB, oddKeys(n), 8), layout.VEB, 8)
	var q uint64
	next := func() uint64 { q = (q + 7919) % uint64(2*n+2); return q }
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Find", func() { ix.Find(next()) }},
		{"Predecessor", func() { ix.Predecessor(next()) }},
		{"Successor", func() { ix.Successor(next()) }},
		{"Seek+64 Next", func() {
			c := NewCursor(ix)
			c.Seek(next())
			for range 64 {
				c.Next()
			}
		}},
	} {
		if a := testing.AllocsPerRun(1000, c.op); a != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, a)
		}
	}
}
