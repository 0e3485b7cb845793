package bench

import (
	"fmt"
	"runtime"

	"implicitlayout/internal/gpu"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// gpuB is the B-tree node capacity of the GPU experiments: the paper uses
// 32 on its GPU (128-byte cache lines).
const gpuB = 32

// gpuPermuteMS returns the modelled time of permuting data, refilled with
// sorted keys first, with spec on the simulated device.
func gpuPermuteMS(dev gpu.Device, spec algoSpec, data []uint64) float64 {
	workload.Refill(data)
	return dev.TimeMS(gpu.RunPermute(dev, data, spec.kind, spec.algo, gpuB, runtime.GOMAXPROCS(0)))
}

// GPUPermuteTimes reproduces Figure 6.8: the modelled time of each
// permutation algorithm on the simulated GPU (a Tesla K40, see package
// gpu for the substitution rationale) versus N. The expected shape
// (paper): B-tree cycle-leader fastest; BST involution close behind
// (hardware bit reversal); B-tree involution poor (modular inverses);
// both vEB ports poor (per-subtree kernel launches).
func GPUPermuteTimes(cfg Config) Table {
	dev := gpu.TeslaK40()
	t := Table{
		Title:  fmt.Sprintf("fig6.8: simulated GPU permute time [ms] vs N (B=%d, %s)", gpuB, dev.Name),
		Note:   "cost model: kernel launches + memory transactions + instructions (see internal/gpu)",
		Header: append([]string{"N"}, algoNames()...),
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		data := make([]uint64, 1<<uint(lg))
		row := []string{fmt.Sprintf("2^%d", lg)}
		for _, spec := range algos() {
			row = append(row, fmt.Sprintf("%.3f", gpuPermuteMS(dev, spec, data)))
		}
		t.AddRow(row...)
	}
	return t
}

// GPUBreakEven reproduces Figure 6.9: modelled combined permute+query GPU
// time versus Q at N = 2^MaxLog, with binary search on the un-permuted
// array as baseline. The paper omits vEB from this figure because its
// permutation is far slower; it is included here with that caveat
// visible in the numbers.
func GPUBreakEven(cfg Config) BreakEvenResult {
	dev := gpu.TeslaK40()
	n := 1 << uint(cfg.MaxLog)
	sorted := workload.Sorted(n)
	queries := workload.Queries(cfg.Q, n, 0.5, cfg.Seed)
	data := make([]uint64, n)
	b := breakEven{n: n, rate: map[layout.Kind]float64{}}
	b.perm = fastest(func(s algoSpec) float64 { return gpuPermuteMS(dev, s, data) })
	for _, k := range queryKinds() {
		c := gpu.RunQueries(dev, laidOut(sorted, k, gpuB), k, gpuB, queries, runtime.GOMAXPROCS(0))
		b.rate[k] = dev.TimeMS(c) / float64(len(queries))
	}
	return b.tables(cfg, Table{
		Title:  fmt.Sprintf("fig6.9: simulated GPU permute+query [ms] vs Q (N=2^%d, B=%d)", cfg.MaxLog, gpuB),
		Note:   "permute: " + describe(b.perm, "%.2fms"),
		Header: []string{"Q", "binary", "bst", "btree", "veb"},
	}, Table{
		Title:  fmt.Sprintf("simulated GPU break-even vs binary search (N=2^%d)", cfg.MaxLog),
		Note:   "paper: BST >= 12.7% of N, B-tree >= 5.6% of N",
		Header: []string{"layout", "permute[ms]", "us/query", "binary us/query", "Q*", "Q*/N"},
	}, "%.2f", 1e3, "%.3f")
}
