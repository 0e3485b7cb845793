package bench

import (
	"fmt"

	"implicitlayout/internal/workload"
	"implicitlayout/layout"
	"implicitlayout/search"
)

// BreakEvenResult carries a break-even experiment's tables: the combined
// permute+query time versus Q, and the headline crossover points (the
// paper's central practical claim).
type BreakEvenResult struct {
	// Combined is the permute+query time table versus Q.
	Combined Table
	// Crossovers lists, per layout, the smallest Q at which permuting
	// beats plain binary search.
	Crossovers Table
}

func (r BreakEvenResult) tables() []Table { return []Table{r.Combined, r.Crossovers} }

// breakEven holds one break-even experiment's measurements in one time
// unit: the fastest permutation per layout, and the cost per query per
// layout (layout.Sorted is binary search on the un-permuted array).
type breakEven struct {
	n    int
	perm map[layout.Kind]pick
	rate map[layout.Kind]float64
}

// tables fills combined (over Q = 2^MinLogQ .. 2^MaxLogQ) and cross,
// which arrive with their titles, notes and headers set. costFmt formats
// a time in the measurement unit; perQuery scales a rate to the crossover
// table's per-query unit, formatted with queryFmt. The crossover Q for
// each layout is permute / (binary_rate - layout_rate).
func (b breakEven) tables(cfg Config, combined, cross Table, costFmt string, perQuery float64, queryFmt string) BreakEvenResult {
	base := b.rate[layout.Sorted]
	for lq := cfg.MinLogQ; lq <= cfg.MaxLogQ; lq++ {
		q := float64(int(1) << uint(lq))
		row := []string{fmt.Sprintf("2^%d", lq), fmt.Sprintf(costFmt, q*base)}
		for _, k := range paperKinds() {
			row = append(row, fmt.Sprintf(costFmt, b.perm[k].cost+q*b.rate[k]))
		}
		combined.AddRow(row...)
	}
	for _, k := range paperKinds() {
		qstar, frac := "never", "-"
		if b.rate[k] < base {
			q := b.perm[k].cost / (base - b.rate[k])
			qstar = fmt.Sprintf("%.3g", q)
			frac = fmt.Sprintf("%.2f%%", 100*q/float64(b.n))
		}
		cross.AddRow(k.String(),
			fmt.Sprintf(costFmt, b.perm[k].cost),
			fmt.Sprintf(queryFmt, b.rate[k]*perQuery),
			fmt.Sprintf(queryFmt, base*perQuery),
			qstar, frac)
	}
	return BreakEvenResult{Combined: combined, Crossovers: cross}
}

// BreakEven reproduces Figures 6.6 and 6.7: the combined time of permuting
// an N = 2^MaxLog sorted array into each layout (with the fastest
// algorithm for that layout, as measured, on P workers) and answering Q
// uniformly random queries, versus Q, against the binary-search-only
// baseline. Per-query costs are measured on a Q-sized batch, answered by
// P workers, and scaled — query cost is linear in Q for uniform random
// queries.
func BreakEven(cfg Config) BreakEvenResult {
	n := 1 << uint(cfg.MaxLog)
	sorted := workload.Sorted(n)
	queries := workload.Queries(cfg.Q, n, 0.5, cfg.Seed)
	data := make([]uint64, n)
	b := breakEven{n: n, rate: map[layout.Kind]float64{}}
	b.perm = fastest(func(s algoSpec) float64 { return cfg.timePermute(s, data, cfg.P).Seconds() })
	for _, k := range queryKinds() {
		ix := search.NewIndex(laidOut(sorted, k, cfg.B), k, cfg.B)
		d := timeIt(cfg.Trials, func() {}, func() {
			querySink += ix.FindBatch(queries, cfg.P)
		})
		b.rate[k] = d.Seconds() / float64(len(queries))
	}
	return b.tables(cfg, Table{
		Title: fmt.Sprintf("fig6.6/6.7: permute+query time [s] vs Q (N=2^%d, P=%d, B=%d)", cfg.MaxLog, cfg.P, cfg.B),
		Note: fmt.Sprintf("permute algorithms: %s; rates measured on Q=%d",
			describe(b.perm, "%.3gs"), cfg.Q),
		Header: []string{"Q", "binary", "bst", "btree", "veb"},
	}, Table{
		Title:  fmt.Sprintf("break-even queries vs binary search (N=2^%d, P=%d)", cfg.MaxLog, cfg.P),
		Note:   "Q* = permute / (binary_rate - layout_rate); paper: <= 12% of N sequential, <= 6% parallel",
		Header: []string{"layout", "permute[s]", "ns/query", "binary ns/query", "Q*", "Q*/N"},
	}, "%.4g", 1e9, "%.1f")
}
