package layout_test

import (
	"fmt"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/perm"
)

// BenchmarkLayoutWrite lays out sorted uint64 key + value pairs on one
// worker, per layout at a perfect and a non-perfect size: "write" is
// layout.Write, "permute" the paper's in-place cycle-leader
// permutation (perm.PermuteWith) of the same input to the same array,
// and "read" the way back, layout.Read of the laid-out pairs to sorted
// order in place.
func BenchmarkLayoutWrite(b *testing.B) {
	for _, n := range []int{1 << 21, 3 << 19} {
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for _, k := range []layout.Kind{layout.BST, layout.BTree, layout.VEB, layout.Hier} {
			for _, method := range []string{"write", "permute", "read"} {
				b.Run(fmt.Sprintf("%s/%v/n=%d", method, k, n), func(b *testing.B) {
					b.SetBytes(16 * int64(n))
					for range b.N {
						b.StopTimer()
						for i := range keys {
							keys[i], vals[i] = uint64(i), uint64(i)
						}
						if method == "read" {
							layout.Write(k, keys, vals, layout.DefaultB)
						}
						b.StartTimer()
						switch method {
						case "write":
							layout.Write(k, keys, vals, layout.DefaultB)
						case "permute":
							perm.PermuteWith(keys, vals, k, perm.CycleLeader)
						case "read":
							layout.Read(k, keys, vals, keys, vals, layout.DefaultB)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
				})
			}
		}
	}
}
