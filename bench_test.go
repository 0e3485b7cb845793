// Benchmarks regenerating the paper's tables and figures in testing.B
// form, one per experiment, at a scale that completes quickly. The cmd/*
// tools run the same experiments at paper scale with full sweeps; the
// runners themselves live in package bench.
package implicitlayout

import (
	"fmt"
	"runtime"
	"testing"

	"implicitlayout/bench"
	"implicitlayout/internal/core"
	"implicitlayout/internal/gather"
	"implicitlayout/internal/gpu"
	"implicitlayout/internal/par"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/trace"
	"implicitlayout/internal/vec"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/search"
)

const (
	benchLogN = 20 // permutation benchmark size: N = 2^20
	benchB    = 8  // B-tree node capacity on the "CPU" (64-byte lines)
)

// benchPermute times one permutation algorithm at the given worker count.
func benchPermute(b *testing.B, spec bench.AlgoSpec, p int) {
	n := 1 << benchLogN
	data := make([]uint64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.Refill(data)
		b.StartTimer()
		bench.RunPermute(spec, data, p, benchB, false)
	}
}

// BenchmarkFig61Permute reproduces Figure 6.1: sequential permutation
// time for each of the six algorithms.
func BenchmarkFig61Permute(b *testing.B) {
	for _, spec := range bench.Algos() {
		b.Run(spec.Name, func(b *testing.B) { benchPermute(b, spec, 1) })
	}
}

// BenchmarkFig62PermuteParallel reproduces Figure 6.2: parallel
// permutation time (P = GOMAXPROCS).
func BenchmarkFig62PermuteParallel(b *testing.B) {
	for _, spec := range bench.Algos() {
		b.Run(spec.Name, func(b *testing.B) { benchPermute(b, spec, runtime.GOMAXPROCS(0)) })
	}
}

// BenchmarkFig63Speedup reproduces Figure 6.3: the per-layout fastest
// algorithm across worker counts (speedup = t(P=1)/t(P)).
func BenchmarkFig63Speedup(b *testing.B) {
	specs := []bench.AlgoSpec{
		{Name: "cyc-bst", Kind: layout.BST, Algo: core.CycleLeader},
		{Name: "cyc-btree", Kind: layout.BTree, Algo: core.CycleLeader},
		{Name: "cyc-veb", Kind: layout.VEB, Algo: core.CycleLeader},
	}
	for _, spec := range specs {
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/P=%d", spec.Name, p), func(b *testing.B) {
				benchPermute(b, spec, p)
			})
		}
	}
}

// BenchmarkFig64GatherVsSwap reproduces Figure 6.4: one equidistant
// gather round on chunks versus swapping the array halves.
func BenchmarkFig64GatherVsSwap(b *testing.B) {
	units := benchB + (benchB+1)*benchB
	c := (1 << benchLogN) / units
	n := units * c
	data := make([]uint64, n)
	for _, p := range []int{1, 2} {
		rn := par.New(p)
		b.Run(fmt.Sprintf("gather-chunks/P=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			for i := 0; i < b.N; i++ {
				gather.Equidistant[uint64](rn, vec.Of(data), 0, benchB, benchB, c)
			}
		})
		b.Run(fmt.Sprintf("swap-halves/P=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			for i := 0; i < b.N; i++ {
				shuffle.SwapBlocks[uint64](rn, vec.Of(data), 0, n/2, n/2)
			}
		})
	}
}

// BenchmarkFig65Queries reproduces Figure 6.5: per-query time on each
// layout (binary search baseline, BST, B-tree, vEB). Go has no prefetch
// instruction, so the figure's prefetched-BST series is not reproduced.
func BenchmarkFig65Queries(b *testing.B) {
	n := 1 << benchLogN
	sorted := workload.Sorted(n)
	qs := workload.Queries(1<<14, n, 0.5, 1)
	run := func(name string, arr []uint64, find func(q uint64) int) {
		b.Run(name, func(b *testing.B) {
			var h int
			for i := 0; i < b.N; i++ {
				if find(qs[i&(len(qs)-1)]) >= 0 {
					h++
				}
			}
			_ = h
		})
	}
	run("binary", sorted, func(q uint64) int { return search.Binary(sorted, q) })
	bst := layout.Build(layout.BST, sorted, 0)
	run("bst", bst, func(q uint64) int { return search.BST(bst, q) })
	btree := layout.Build(layout.BTree, sorted, benchB)
	run("btree", btree, func(q uint64) int { return search.BTree(btree, benchB, q) })
	veb := layout.Build(layout.VEB, sorted, 0)
	run("veb", veb, func(q uint64) int { return search.VEB(veb, q) })
}

// BenchmarkFig66Combined reproduces the Figure 6.6/6.7 quantity: permute
// plus a fixed batch of queries, per layout (Q = 1% of N, near the
// paper's crossover region).
func BenchmarkFig66Combined(b *testing.B) {
	n := 1 << benchLogN
	q := n / 100
	qs := workload.Queries(q, n, 0.5, 1)
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, k := range layout.Kinds() {
			b.Run(fmt.Sprintf("%s/P=%d", k, p), func(b *testing.B) {
				data := make([]uint64, n)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					workload.Refill(data)
					b.StartTimer()
					bench.RunPermute(bench.AlgoSpec{Kind: k, Algo: core.CycleLeader}, data, p, benchB, false)
					ix := search.NewIndex(data, k, benchB)
					if ix.FindBatch(qs, p) < 0 {
						b.Fatal("impossible")
					}
				}
			})
		}
		b.Run(fmt.Sprintf("binary-baseline/P=%d", p), func(b *testing.B) {
			sorted := workload.Sorted(n)
			ix := search.NewIndex(sorted, layout.Sorted, 0)
			for i := 0; i < b.N; i++ {
				if ix.FindBatch(qs, p) < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkFig68GPUPermute reproduces Figure 6.8 on the simulated device;
// the reported metric model-ms is the modelled GPU time (the wall time of
// the benchmark itself is simulation overhead).
func BenchmarkFig68GPUPermute(b *testing.B) {
	dev := gpu.TeslaK40()
	n := 1 << 20
	for _, spec := range bench.Algos() {
		b.Run(spec.Name, func(b *testing.B) {
			data := make([]uint64, n)
			var ms float64
			for i := 0; i < b.N; i++ {
				workload.Refill(data)
				c := gpu.RunPermute(dev, data, spec.Kind, spec.Algo, 32, runtime.GOMAXPROCS(0))
				ms = dev.TimeMS(c)
			}
			b.ReportMetric(ms, "model-ms")
		})
	}
}

// BenchmarkFig69GPUQueries reproduces the query half of Figure 6.9.
func BenchmarkFig69GPUQueries(b *testing.B) {
	dev := gpu.TeslaK40()
	n := 1 << 20
	sorted := workload.Sorted(n)
	qs := workload.Queries(1<<14, n, 0.5, 1)
	for _, k := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB} {
		b.Run(k.String(), func(b *testing.B) {
			arr := sorted
			if k != layout.Sorted {
				arr = layout.Build(k, sorted, 32)
			}
			var us float64
			for i := 0; i < b.N; i++ {
				c := gpu.RunQueries(dev, arr, k, 32, qs, runtime.GOMAXPROCS(0))
				us = dev.TimeMS(c) / float64(len(qs)) * 1e3
			}
			b.ReportMetric(us, "model-us/query")
		})
	}
}

// BenchmarkTable11Work reports swaps per key for each algorithm (the work
// column of Table 1.1) as a custom metric.
func BenchmarkTable11Work(b *testing.B) {
	n := 1<<18 - 1
	for _, spec := range bench.Algos() {
		b.Run(spec.Name, func(b *testing.B) {
			var spk float64
			for i := 0; i < b.N; i++ {
				data := workload.Sorted(n)
				v := trace.New(data, 1)
				core.Permute[uint64](core.Options{Runner: par.New(1), B: benchB}, v, spec.Kind, spec.Algo)
				spk = float64(v.Swaps()) / float64(n)
			}
			b.ReportMetric(spk, "swaps/key")
		})
	}
}

// BenchmarkTable11IO reports the measured PEM parallel I/O count Q(N,P)
// per key (the I/O column of Table 1.1) as a custom metric.
func BenchmarkTable11IO(b *testing.B) {
	n := 1<<16 - 1
	cfg := pem.Config{M: 1 << 12, B: 8}
	for _, spec := range bench.Algos() {
		b.Run(spec.Name, func(b *testing.B) {
			var iopk float64
			for i := 0; i < b.N; i++ {
				data := workload.Sorted(n)
				v := pem.New(data, 4, cfg)
				rn := par.Runner{Lo: 0, Hi: 4, MinFor: 1}
				core.Permute[uint64](core.Options{Runner: rn, B: benchB}, v, spec.Kind, spec.Algo)
				iopk = float64(v.MaxIO()) * 4 / float64(n)
			}
			b.ReportMetric(iopk, "maxIO*P/key")
		})
	}
}

// BenchmarkPublicAPI exercises the perm package entry point end to end.
func BenchmarkPublicAPI(b *testing.B) {
	n := 1 << 18
	data := make([]uint64, n)
	b.Run("permute-veb-cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			workload.Refill(data)
			b.StartTimer()
			perm.Permute(data, layout.VEB, perm.CycleLeader, perm.WithWorkers(2))
		}
	})
}
