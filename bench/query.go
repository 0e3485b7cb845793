package bench

import (
	"fmt"

	"implicitlayout/internal/core"
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
	"implicitlayout/search"
)

// querySink absorbs hit counts so search loops cannot be eliminated.
var querySink int

// QueryTimes reproduces Figure 6.5: the time to sequentially answer Q
// uniformly random queries on each search layout versus the array size,
// with binary search on the un-permuted array as the baseline. Every
// series runs through search.Index.Find. Go has no prefetch instruction,
// so the figure's prefetched-BST series is not reproduced.
func QueryTimes(cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("fig6.5: time [s] for %d queries vs N (B=%d)", cfg.Q, cfg.B),
		Note:   "sequential; uniform random queries, 50% hit rate; no prefetched-BST series (Go has no prefetch instruction)",
		Header: []string{"N", "binary", "bst", "btree", "veb"},
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		n := 1 << uint(lg)
		sorted := workload.Sorted(n)
		queries := workload.Queries(cfg.Q, n, 0.5, cfg.Seed+int64(lg))
		row := []string{fmt.Sprintf("2^%d", lg)}
		for _, k := range queryKinds() {
			ix := search.NewIndex(laidOut(sorted, k, cfg.B), k, cfg.B)
			row = append(row, secs(timeIt(cfg.Trials, func() {}, func() {
				h := 0
				for _, q := range queries {
					if ix.Find(q) >= 0 {
						h++
					}
				}
				querySink += h
			})))
		}
		t.AddRow(row...)
	}
	return t
}

// laidOut returns sorted permuted into layout k: a copy for the tree
// layouts, sorted itself for layout.Sorted. It uses the cycle-leader
// algorithm; the permutation is exact, so the construction algorithm does
// not matter for query measurements.
func laidOut(sorted []uint64, k layout.Kind, b int) []uint64 {
	if k == layout.Sorted {
		return sorted
	}
	out := append([]uint64(nil), sorted...)
	s := vec.Of(out)
	core.Permute[uint64](core.Options{Runner: par.New(0), B: b}, &s, k, core.CycleLeader)
	return out
}
