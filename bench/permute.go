package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/core"
	"implicitlayout/internal/gather"
	"implicitlayout/internal/par"
	"implicitlayout/internal/shuffle"
	"implicitlayout/internal/vec"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// algoSpec identifies one of the six permutation algorithms.
type algoSpec struct {
	kind layout.Kind
	algo core.Algorithm
}

// name is the short label used in table headers, e.g. "cyc-veb".
func (s algoSpec) name() string {
	if s.algo == core.Involution {
		return "inv-" + s.kind.String()
	}
	return "cyc-" + s.kind.String()
}

// paperKinds lists the three layouts the paper's figures compare. The
// hier layout is this repo's extension; the figure reproductions stay
// pinned to the paper.
func paperKinds() []layout.Kind {
	return []layout.Kind{layout.BST, layout.BTree, layout.VEB}
}

// queryKinds is paperKinds after binary search on the sorted array, the
// baseline of every query figure.
func queryKinds() []layout.Kind { return append([]layout.Kind{layout.Sorted}, paperKinds()...) }

// algos lists the six algorithms in the order the paper's figures use.
func algos() []algoSpec {
	var specs []algoSpec
	for _, k := range paperKinds() {
		for _, a := range core.Algorithms() {
			specs = append(specs, algoSpec{k, a})
		}
	}
	return specs
}

func algoNames() []string {
	var out []string
	for _, s := range algos() {
		out = append(out, s.name())
	}
	return out
}

// options assembles the core options of a CPU permutation with p workers.
func (c Config) options(p int) core.Options {
	o := core.Options{Runner: par.New(p), B: c.B}
	if c.SoftwareRev {
		o.Rev = bits.Software{}
	}
	return o
}

// timePermute returns the mean time of permuting data, refilled with
// sorted keys before every trial, with spec and p workers.
func (c Config) timePermute(spec algoSpec, data []uint64, p int) time.Duration {
	return timeIt(c.Trials,
		func() { workload.Refill(data) },
		func() {
			s := vec.Of(data)
			core.Permute[uint64](c.options(p), &s, spec.kind, spec.algo)
		})
}

// pick is the fastest algorithm for one layout and its cost.
type pick struct {
	spec algoSpec
	cost float64
}

// fastest returns, per paper layout, the algorithm with the lowest cost.
func fastest(cost func(algoSpec) float64) map[layout.Kind]pick {
	best := map[layout.Kind]pick{}
	for _, spec := range algos() {
		c := cost(spec)
		if cur, ok := best[spec.kind]; !ok || c < cur.cost {
			best[spec.kind] = pick{spec, c}
		}
	}
	return best
}

// describe lists each layout's pick as "bst=cyc-bst", followed by its
// cost in costFmt when costFmt is not empty.
func describe(best map[layout.Kind]pick, costFmt string) string {
	var parts []string
	for _, k := range paperKinds() {
		s := k.String() + "=" + best[k].spec.name()
		if costFmt != "" {
			s += " (" + fmt.Sprintf(costFmt, best[k].cost) + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// PermuteTimes reproduces Figures 6.1 and 6.2: the average time to permute
// a sorted array with each of the six algorithms, versus N, with P
// workers (1 reproduces Figure 6.1).
func PermuteTimes(cfg Config) Table {
	t := Table{
		Title: fmt.Sprintf("fig6.1/6.2: permute time [s] vs N (P=%d, B=%d)", cfg.P, cfg.B),
		Note: fmt.Sprintf("%d trials per cell; 64-bit keys; softwareRev=%v; "+
			"N = 2^lg is not a perfect size: on this slice backend the B-tree cells separate the partial level "+
			"by block rotations, not by the paper's J un-shuffle the cost models count, and vEB keeps its one "+
			"last-level key at the front of each subtree (BST's is one rotation on either path)", cfg.Trials, cfg.SoftwareRev),
		Header: append([]string{"N"}, algoNames()...),
	}
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		data := make([]uint64, 1<<uint(lg))
		row := []string{fmt.Sprintf("2^%d", lg)}
		for _, spec := range algos() {
			row = append(row, secs(cfg.timePermute(spec, data, cfg.P)))
		}
		t.AddRow(row...)
	}
	return t
}

// Speedup reproduces Figure 6.3: the speedup over P = 1 of the fastest
// permutation algorithm for each layout (determined by measurement at
// P = 1, as in the paper), versus the number of workers, at N = 2^MaxLog.
// Note that this host has runtime.NumCPU() hardware threads; speedups
// beyond that count measure scheduling overhead, not parallelism.
func Speedup(cfg Config) Table {
	data := make([]uint64, 1<<uint(cfg.MaxLog))
	best := fastest(func(s algoSpec) float64 { return cfg.timePermute(s, data, 1).Seconds() })
	t := Table{
		Title:  fmt.Sprintf("fig6.3: speedup vs P (N=2^%d, B=%d, host has %d CPUs)", cfg.MaxLog, cfg.B, runtime.NumCPU()),
		Note:   "fastest per layout at P=1: " + describe(best, ""),
		Header: []string{"P", "bst", "btree", "veb"},
	}
	for p := 1; p <= cfg.MaxP; p++ {
		row := []string{fmt.Sprintf("%d", p)}
		for _, k := range paperKinds() {
			row = append(row, ratio(best[k].cost/cfg.timePermute(best[k].spec, data, p).Seconds()))
		}
		t.AddRow(row...)
	}
	return t
}

// GatherThroughput reproduces Figure 6.4: the memory throughput of a
// single round of the equidistant gather on chunks of elements (the inner
// operation of the B-tree cycle-leader algorithm) versus the simplest
// analog, swapping the first half of the array with the second half, at
// about 2^MaxLog elements. Throughput counts each element as 16 moved
// bytes (read + write).
func GatherThroughput(cfg Config) Table {
	units := cfg.B + (cfg.B+1)*cfg.B // shape-a unit count for r = l = B
	c := (1 << uint(cfg.MaxLog)) / units
	n := units * c
	data := make([]uint64, n)
	t := Table{
		Title:  fmt.Sprintf("fig6.4: throughput [GB/s] vs P (N=%d, chunk=%d)", n, c),
		Note:   "gather = one equidistant gather on chunks (r=l=B); swap = first half <-> second half",
		Header: []string{"P", "gather-chunks", "swap-halves"},
	}
	bytes := float64(n) * 16
	for p := 1; p <= cfg.MaxP; p++ {
		rn := par.New(p)
		dg := timeIt(cfg.Trials,
			func() { workload.Refill(data) },
			func() { gather.Equidistant[uint64](rn, vec.Of(data), 0, cfg.B, cfg.B, c) })
		ds := timeIt(cfg.Trials,
			func() { workload.Refill(data) },
			func() { shuffle.SwapBlocks[uint64](rn, vec.Of(data), 0, n/2, n/2) })
		t.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%.2f", bytes/dg.Seconds()/1e9),
			fmt.Sprintf("%.2f", bytes/ds.Seconds()/1e9))
	}
	return t
}
