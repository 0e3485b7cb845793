package perm_test

import (
	"fmt"
	"runtime"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/perm"
)

// BenchmarkPermuteWith permutes sorted uint64 key + value pairs with the
// cycle-leader family into vEB and BST, on one worker and on GOMAXPROCS,
// at 2^22 and at the perfect size 2^22-1. The vEB row at 2^22 on
// GOMAXPROCS is perfbench's build secondary_kops_s cell as a go test
// row; at 2^22-1 the vEB top split is one square gather whose bottoms
// are 2^11-1 records, where 2^22 takes the non-perfect path (the
// partial-level pre-pass and the extended gather).
func BenchmarkPermuteWith(b *testing.B) {
	const maxN = 1 << 22
	keys := make([]uint64, maxN)
	vals := make([]uint64, maxN)
	for _, k := range []layout.Kind{layout.VEB, layout.BST} {
		for _, n := range []int{maxN, maxN - 1} {
			for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%v/n=%d/P=%d", k, n, p), func(b *testing.B) {
					keys, vals := keys[:n], vals[:n]
					b.SetBytes(16 * int64(n))
					for range b.N {
						b.StopTimer()
						for i := range keys {
							keys[i], vals[i] = uint64(i), uint64(i)
						}
						b.StartTimer()
						perm.PermuteWith(keys, vals, k, perm.CycleLeader, perm.WithWorkers(p))
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
				})
			}
		}
	}
}
