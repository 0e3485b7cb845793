package bench

import (
	"fmt"

	"implicitlayout/internal/core"
	"implicitlayout/internal/par"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/vec"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// AblationConfig parameterizes the gather-variant ablation.
type AblationConfig struct {
	// MinLog and MaxLog bound the size sweep.
	MinLog, MaxLog int
	// Trials per timed cell.
	Trials int
	// Batch is the batched-gather cycle group size.
	Batch int
	// PEM sizes the cache simulation for the I/O columns.
	PEM pem.Config
}

// GatherAblation compares the three phase-1 strategies of the vEB
// cycle-leader algorithm from Section 4.2 — direct strided cycles,
// per-worker cycle batching (the "simpler solution"), and the
// matrix-transposition blocking — on both wall-clock time and simulated
// block transfers. It substantiates that section's design-choice
// discussion: batching wins on real caches; transposition wins on large
// blocks but pays constant-factor passes.
func GatherAblation(cfg AblationConfig) Table {
	if cfg.PEM.B == 0 {
		cfg.PEM = pem.DefaultConfig()
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	t := Table{
		Title: fmt.Sprintf("ablation: vEB cycle-leader gather variants (batch=%d, pem M=%d B=%d)",
			cfg.Batch, cfg.PEM.M, cfg.PEM.B),
		Note:   "time columns in seconds (P=1); io columns are total simulated block transfers / N",
		Header: []string{"N", "t-plain", "t-batched", "t-transposed", "io-plain", "io-batched", "io-transposed"},
	}
	variants := []core.Options{
		{},
		{GatherBatch: cfg.Batch},
		{TransposedGather: true},
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		n := 1<<uint(lg) - 1 // perfect sizes isolate the gather phases
		row := []string{fmt.Sprintf("2^%d-1", lg)}
		data := make([]uint64, n)
		for _, opt := range variants {
			opt := opt
			opt.Runner = par.New(1)
			d := timeIt(cfg.Trials,
				func() { workload.Refill(data) },
				func() { core.CycleVEB[uint64](opt, vec.Of(data)) })
			row = append(row, secs(d))
		}
		for _, opt := range variants {
			opt := opt
			opt.Runner = par.New(1)
			opt.Runner.MinFor = 1
			v := pem.New(workload.Sorted(n), 1, cfg.PEM)
			core.CycleVEB[uint64](opt, v)
			row = append(row, fmt.Sprintf("%.3f", float64(v.TotalIO())/float64(n)))
		}
		// correctness guard: all variants must produce the vEB layout
		for _, opt := range variants {
			opt := opt
			opt.Runner = par.New(1)
			check := workload.Sorted(n)
			core.CycleVEB[uint64](opt, vec.Of(check))
			want := layout.Build(layout.VEB, workload.Sorted(n), 0)
			for i := range check {
				if check[i] != want[i] {
					panic("gather ablation variant produced a wrong layout")
				}
			}
		}
		t.AddRow(row...)
	}
	return t
}
