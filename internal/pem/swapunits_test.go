package pem

import (
	"reflect"
	"slices"
	"testing"
)

func seqData(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestSwapUnitsChargesLoop: SwapUnits moves the data and charges every
// per-processor counter (block transfers and LRU cache contents) exactly as the Swap/SwapRange loop it
// stands for, on the patterns the kernels use.
func TestSwapUnitsChargesLoop(t *testing.T) {
	shapes := []struct{ i, di, j, dj, c, n int }{
		{0, 1, 599, -1, 1, 300},                // Reverse
		{0, 5, 595, -5, 5, 60},                 // ReverseUnits, contiguous units
		{10, 9, 10 + 39*9, -9, 4, 20},          // ReverseUnits, strided units
		{3, 0, 500, 0, 3, 1},                   // a lone T0 swap
		{1, 1, 24, 24, 1, 23},                  // transpose row 0 vs column 0
		{1*24 + 2*2, 2, 2*24 + 1*2, 24, 2, 10}, // transpose, c = 2
		{299, -1, 300, 1, 1, 300},              // first run walks down
		{0, 1, 10, 1, 1, 0},                    // n = 0
	}
	got, want := New(seqData(600), 2, Config{M: 64, B: 8}), New(seqData(600), 2, Config{M: 64, B: 8})
	for k, s := range shapes {
		p := k % 2
		got.SwapUnits(p, s.i, s.di, s.j, s.dj, s.c, s.n)
		for u := 0; u < s.n; u++ {
			if s.c == 1 {
				want.Swap(p, s.i+u*s.di, s.j+u*s.dj)
			} else {
				want.SwapRange(p, s.i+u*s.di, s.j+u*s.dj, s.c)
			}
		}
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("shape %d %+v: data differs from the loop", k, s)
		}
		if !reflect.DeepEqual(got.procs, want.procs) {
			t.Fatalf("shape %d %+v: counters differ from the loop", k, s)
		}
	}
}
