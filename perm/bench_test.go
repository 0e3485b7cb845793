package perm_test

import (
	"fmt"
	"runtime"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/perm"
)

// BenchmarkPermuteWith permutes sorted uint64 key + value pairs with the
// cycle-leader family, on one worker and on GOMAXPROCS. The vEB row at
// 2^22 on GOMAXPROCS is perfbench's build secondary_kops_s cell as a go
// test row. The perfect sizes 2^22-1 (vEB, BST) and 9^7-1 (B-tree,
// B = 8) run no Chapter 5 pre-pass; every other row does: 2^22 is a
// perfect tree plus one key for vEB and BST, and a partial level of
// 3.66M keys for the B-tree; 3*2^19 and 2^21+5000 fill half and a
// sliver of their last level.
func BenchmarkPermuteWith(b *testing.B) {
	const btreePerfect = 9*9*9*9*9*9*9 - 1
	cases := []struct {
		kind layout.Kind
		n    int
	}{
		{layout.VEB, 1 << 22}, {layout.VEB, 1<<22 - 1},
		{layout.VEB, 3 << 19}, {layout.VEB, 1<<21 + 5000},
		{layout.BST, 1 << 22}, {layout.BST, 1<<22 - 1},
		{layout.BST, 3 << 19}, {layout.BST, 1<<21 + 5000},
		{layout.BTree, 1 << 22}, {layout.BTree, btreePerfect},
	}
	keys := make([]uint64, btreePerfect)
	vals := make([]uint64, btreePerfect)
	for _, c := range cases {
		for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%v/n=%d/P=%d", c.kind, c.n, p), func(b *testing.B) {
				keys, vals := keys[:c.n], vals[:c.n]
				b.SetBytes(16 * int64(c.n))
				for range b.N {
					b.StopTimer()
					for i := range keys {
						keys[i], vals[i] = uint64(i), uint64(i)
					}
					b.StartTimer()
					perm.PermuteWith(keys, vals, c.kind, perm.CycleLeader, perm.WithWorkers(p))
				}
				b.ReportMetric(float64(c.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
			})
		}
	}
}
