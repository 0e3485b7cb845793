package trace_test

import (
	"reflect"
	"testing"

	"implicitlayout/internal/gpu"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/trace"
	"implicitlayout/internal/vec"
)

func seqData(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestSwapUnitsChargesLoop: on every model, SwapUnits moves the data and
// charges the operation counts and the cache state exactly as the
// Swap/SwapRange loop it stands for, on the patterns the kernels use.
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
	models := []struct {
		name string
		make func() vec.Vec[int]
	}{
		{"trace", func() vec.Vec[int] { return trace.New(seqData(600), 2) }},
		{"pem", func() vec.Vec[int] { return pem.New(seqData(600), 2, pem.Config{M: 64, B: 8}) }},
		{"gpu", func() vec.Vec[int] { return gpu.NewVec(seqData(600), 2, gpu.TeslaK40()) }},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			got, want := m.make(), m.make()
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
				// Deep equality covers the data, the per-processor
				// counters and the cache the counters charge.
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shape %d %+v: state differs from the loop", k, s)
				}
			}
			if reflect.DeepEqual(got, m.make()) {
				t.Fatal("the shapes moved and charged nothing")
			}
		})
	}
}
