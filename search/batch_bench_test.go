package search

import (
	"fmt"
	"slices"
	"testing"

	"implicitlayout/layout"
)

// Benchmarks comparing one-at-a-time descents against the interleaved
// ring kernels on out-of-cache indexes — the measurement behind the
// FindBatch dispatch rule. Every layout gets a serial row; the layouts
// with a ring kernel also get one row per ring size.
func BenchmarkBatchKernels(b *testing.B) {
	for _, logN := range []int{20, 22} {
		n := 1 << logN
		sorted := oddKeys(n)
		queries := make([]uint64, 1<<20)
		rng := uint64(0x9e3779b97f4a7c15)
		for i := range queries {
			rng = rng*6364136223846793005 + 1442695040888963407
			queries[i] = rng % uint64(2*n)
		}
		pos := make([]int, len(queries))
		for _, kind := range allKindsWithSorted() {
			arr := layout.Build(kind, sorted, 8)
			ix := NewIndex(arr, kind, 8)
			b.Run(fmt.Sprintf("n=2^%d/%v/serial", logN, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, q := range queries {
						pos[j] = ix.Find(q)
					}
				}
				b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
			})
			if !slices.Contains(ringKinds(), kind) {
				continue
			}
			for _, ring := range []int{8, 16, 32} {
				b.Run(fmt.Sprintf("n=2^%d/%v/ring%d", logN, kind, ring), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ringKernel(kind, arr, 8, queries, pos, ring)
					}
					b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
				})
			}
		}
	}
}
