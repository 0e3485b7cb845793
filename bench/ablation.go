package bench

import (
	"fmt"
	"slices"

	"implicitlayout/internal/core"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/vec"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// ablationBatch is the batched variant's cycle group: 8 cycles of 64-bit
// keys span one 64-byte line.
const ablationBatch = 8

// GatherAblation compares the three phase-1 strategies of the vEB
// cycle-leader algorithm from Section 4.2 — direct strided cycles,
// per-worker cycle batching (the "simpler solution"), and the
// matrix-transposition blocking — on both wall-clock time and simulated
// block transfers. Measured with `paperbench -minlog 16 -maxlog 20
// -trials 3 sec4.2` (one worker, 2 vCPU x86-64 guest, Go 1.24), it does
// not bear out the section's claim that batching wins on real caches:
// plain strided cycles led on time at every N (2^20-1: 0.0042 s plain,
// 0.0050 batched, 0.0121 transposed). In simulated block transfers
// batching matched plain up to 2^17-1, trailed it at 2^18-1 and 2^19-1,
// and first won at 2^20-1 (0.36 against 1.01 per key); transposition
// stayed at 0.81-0.94 per key at every N, paying its constant-factor
// passes.
func GatherAblation(cfg Config) Table {
	t := Table{
		Title: fmt.Sprintf("ablation: vEB cycle-leader gather variants (batch=%d, pem M=%d B=%d)",
			ablationBatch, cfg.PEM.M, cfg.PEM.B),
		Note: "perfect sizes, so no Chapter 5 pre-pass runs in either column; " +
			"time columns in seconds (P=1), on the slice backend, which finishes subtrees of <= 2^11-1 keys by a cycle walk; " +
			"io columns are total simulated block transfers / N, with the paper's recursion to the bottom",
		Header: []string{"N", "t-plain", "t-batched", "t-transposed", "io-plain", "io-batched", "io-transposed"},
	}
	plain := cfg.options(1)
	batched, transposed := plain, plain
	batched.GatherBatch = ablationBatch
	transposed.TransposedGather = true
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		n := 1<<uint(lg) - 1 // perfect sizes isolate the gather phases
		want := layout.Build(layout.VEB, workload.Sorted(n), 0)
		data := make([]uint64, n)
		times, ios := []string{fmt.Sprintf("2^%d-1", lg)}, []string(nil)
		for _, o := range []core.Options{plain, batched, transposed} {
			times = append(times, secs(timeIt(cfg.Trials,
				func() { workload.Refill(data) },
				func() {
					s := vec.Of(data)
					core.CycleVEB[uint64](o, &s)
				})))
			// correctness guard: every variant must produce the vEB layout
			if !slices.Equal(data, want) {
				panic("gather ablation variant produced a wrong layout")
			}
			v := pem.New(workload.Sorted(n), 1, cfg.PEM)
			core.CycleVEB[uint64](o, v)
			ios = append(ios, fmt.Sprintf("%.3f", float64(v.TotalIO())/float64(n)))
		}
		t.AddRow(append(times, ios...)...)
	}
	return t
}
