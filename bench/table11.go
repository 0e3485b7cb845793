package bench

import (
	"fmt"
	"math"

	"implicitlayout/internal/core"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/trace"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// perfectSize returns the largest perfect-tree size for the layout that
// does not exceed 2^lg: Table 1.1 is stated (Chapters 2-4) for perfect
// trees, so its empirical validation uses them; the Chapter 5 extensions
// have separate (larger) bounds.
func perfectSize(k layout.Kind, b, lg int) int {
	if k == layout.BTree {
		full, _ := layout.PerfectPrefix(1<<uint(lg), b+1)
		return full
	}
	return 1<<uint(lg) - 1
}

// WorkScaling validates the time column of Table 1.1: it runs every
// algorithm on the counting backend and reports swaps per element. The
// growth of each column with N must match the closed form — constant for
// the involution BST (O(N) work), log_{B+1} N for the B-tree algorithms,
// log log N for the vEB cycle-leader, log N for the vEB involution.
func WorkScaling(cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("table1.1 (work): element swaps per key vs N (B=%d)", cfg.B),
		Note:   "perfect-tree sizes per layout; growth must track: inv-bst O(1); btree O(log_{B+1}N); inv-veb O(logN); cyc-veb O(loglogN)",
		Header: append([]string{"N"}, algoNames()...),
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		row := []string{fmt.Sprintf("~2^%d", lg)}
		for _, spec := range algos() {
			n := perfectSize(spec.kind, cfg.B, lg)
			v := trace.New(workload.Sorted(n), 1)
			core.Permute[uint64](cfg.options(1), v, spec.kind, spec.algo)
			row = append(row, fmt.Sprintf("%.2f", float64(v.Swaps())/float64(n)))
		}
		t.AddRow(row...)
	}
	return t
}

// ioBound evaluates the Table 1.1 I/O bound (without constants) for one
// algorithm at the given parameters; K = min(N/P, M).
func ioBound(spec algoSpec, n, p, btreeB int, cfg pem.Config) float64 {
	N, P := float64(n), float64(p)
	B := float64(cfg.B)
	K := math.Min(N/P, float64(cfg.M))
	logBp1 := func(x float64) float64 { return math.Log(x) / math.Log(float64(btreeB)+1) }
	log2 := func(x float64) float64 { return math.Log2(x) }
	pos := func(x float64) float64 { return math.Max(x, 1) }
	switch spec {
	case algoSpec{layout.BST, core.Involution}:
		return N / P
	case algoSpec{layout.BST, core.CycleLeader}:
		return (N/(P*B) + pos(log2(N/K))) * pos(log2(N/K))
	case algoSpec{layout.BTree, core.Involution}:
		return N/P + float64(btreeB)*pos(logBp1(N/K))
	case algoSpec{layout.BTree, core.CycleLeader}:
		return (N/(P*B) + pos(logBp1(N/K))) * pos(logBp1(N/K))
	case algoSpec{layout.VEB, core.Involution}:
		return N / P * pos(math.Log2(pos(log2(N))/pos(log2(K))+1)+1)
	case algoSpec{layout.VEB, core.CycleLeader}:
		return N / (P * B) * pos(math.Log2(pos(log2(N))/pos(log2(K))+1)+1)
	}
	return math.NaN()
}

// IOScaling validates the I/O column of Table 1.1: every algorithm runs
// on the PEM simulator and the measured parallel I/O count Q(N, P) — the
// maximum block transfers of any processor — is divided by the Table 1.1
// bound. A ratio that stays (roughly) flat as N grows confirms the
// asymptotic; its value is the constant factor.
func IOScaling(cfg Config) Table {
	pc := cfg.PEM
	o := cfg.options(cfg.P)
	o.Runner.MinFor = 1
	t := Table{
		Title: fmt.Sprintf("table1.1 (I/O): measured Q(N,P)/bound vs N (P=%d, M=%d, B=%d words, btreeB=%d)",
			cfg.P, pc.M, pc.B, cfg.B),
		Note:   "flat columns confirm the Table 1.1 I/O bounds; the value is the constant factor",
		Header: append([]string{"N"}, algoNames()...),
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		row := []string{fmt.Sprintf("~2^%d", lg)}
		for _, spec := range algos() {
			n := perfectSize(spec.kind, cfg.B, lg)
			v := pem.New(workload.Sorted(n), cfg.P, pc)
			core.Permute[uint64](o, v, spec.kind, spec.algo)
			bound := ioBound(spec, n, cfg.P, cfg.B, pc)
			row = append(row, fmt.Sprintf("%.3f", float64(v.MaxIO())/bound))
		}
		t.AddRow(row...)
	}
	return t
}
