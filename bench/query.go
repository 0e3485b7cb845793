package bench

import (
	"fmt"

	"implicitlayout/internal/core"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
	"implicitlayout/search"
)

// QueryConfig parameterizes the Figure 6.5 sweep.
type QueryConfig struct {
	// MinLog and MaxLog bound the array-size sweep N = 2^MinLog..2^MaxLog.
	MinLog, MaxLog int
	// Q is the number of queries per measurement (the paper uses 10^6).
	Q int
	// B is the B-tree node capacity.
	B int
	// Trials per cell.
	Trials int
	// Seed drives query generation.
	Seed int64
}

// querySink absorbs hit counts so search loops cannot be eliminated.
var querySink int

// QueryTimes reproduces Figure 6.5: the time to sequentially answer Q
// uniformly random queries on each search layout versus the array size,
// with binary search on the un-permuted array as the baseline. Go has no
// prefetch instruction, so the figure's prefetched-BST series is not
// reproduced.
func QueryTimes(cfg QueryConfig) Table {
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

		row = append(row, secs(timeIt(cfg.Trials, func() {}, func() {
			h := 0
			for _, q := range queries {
				if search.Binary(sorted, q) >= 0 {
					h++
				}
			}
			querySink += h
		})))

		bst := layoutCopy(sorted, layout.BST, cfg.B)
		row = append(row, secs(timeIt(cfg.Trials, func() {}, func() {
			h := 0
			for _, q := range queries {
				if search.BST(bst, q) >= 0 {
					h++
				}
			}
			querySink += h
		})))

		btree := layoutCopy(sorted, layout.BTree, cfg.B)
		row = append(row, secs(timeIt(cfg.Trials, func() {}, func() {
			h := 0
			for _, q := range queries {
				if search.BTree(btree, cfg.B, q) >= 0 {
					h++
				}
			}
			querySink += h
		})))

		veb := layoutCopy(sorted, layout.VEB, cfg.B)
		row = append(row, secs(timeIt(cfg.Trials, func() {}, func() {
			h := 0
			for _, q := range queries {
				if search.VEB(veb, q) >= 0 {
					h++
				}
			}
			querySink += h
		})))

		t.AddRow(row...)
	}
	return t
}

// layoutCopy returns a copy of sorted permuted into layout k using the
// cycle-leader algorithm (the permutation is exact, so the construction
// algorithm does not matter for query measurements).
func layoutCopy(sorted []uint64, k layout.Kind, b int) []uint64 {
	out := make([]uint64, len(sorted))
	copy(out, sorted)
	RunPermute(AlgoSpec{Kind: k, Algo: core.CycleLeader}, out, 0, b, false)
	return out
}
