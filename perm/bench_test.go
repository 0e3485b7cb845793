package perm_test

import (
	"fmt"
	"runtime"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/perm"
)

// BenchmarkPermuteWith permutes 2^22 sorted uint64 key + value pairs with
// the cycle-leader family into vEB and BST, on one worker and on
// GOMAXPROCS: the vEB row at GOMAXPROCS is perfbench's build
// secondary_kops_s cell as a go test row.
func BenchmarkPermuteWith(b *testing.B) {
	const n = 1 << 22
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for _, k := range []layout.Kind{layout.VEB, layout.BST} {
		for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%v/P=%d", k, p), func(b *testing.B) {
				b.SetBytes(16 * n)
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
