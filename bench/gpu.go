package bench

import (
	"fmt"
	"runtime"

	"implicitlayout/internal/gpu"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// GPUConfig parameterizes the simulated-GPU experiments (Figures 6.8 and
// 6.9). The device stands in for the paper's Tesla K40 — see package gpu
// for the substitution rationale.
type GPUConfig struct {
	// MinLog and MaxLog bound the size sweep for Figure 6.8.
	MinLog, MaxLog int
	// LogN fixes the size for the Figure 6.9 break-even run.
	LogN int
	// B is the B-tree node capacity (the paper uses 32 on the GPU: 128
	// byte cache lines).
	B int
	// QBase is the batch used to measure per-query cost.
	QBase int
	// MinLogQ and MaxLogQ bound the Figure 6.9 sweep.
	MinLogQ, MaxLogQ int
	// Device is the simulated accelerator (zero value: Tesla K40).
	Device gpu.Device
	// Seed drives query generation.
	Seed int64
}

func (c GPUConfig) device() gpu.Device {
	if c.Device.Name == "" {
		return gpu.TeslaK40()
	}
	return c.Device
}

// GPUPermuteTimes reproduces Figure 6.8: the modelled time of each
// permutation algorithm on the simulated GPU versus N. The expected shape
// (paper): B-tree cycle-leader fastest; BST involution close behind
// (hardware bit reversal); B-tree involution poor (modular inverses);
// both vEB ports poor (per-subtree kernel launches).
func GPUPermuteTimes(cfg GPUConfig) Table {
	dev := cfg.device()
	t := Table{
		Title:  fmt.Sprintf("fig6.8: simulated GPU permute time [ms] vs N (B=%d, %s)", cfg.B, dev.Name),
		Note:   "cost model: kernel launches + memory transactions + instructions (see internal/gpu)",
		Header: append([]string{"N"}, names(Algos())...),
	}
	p := runtime.GOMAXPROCS(0)
	for lg := cfg.MinLog; lg <= cfg.MaxLog; lg++ {
		n := 1 << uint(lg)
		data := make([]uint64, n)
		row := []string{fmt.Sprintf("2^%d", lg)}
		for _, spec := range Algos() {
			workload.Refill(data)
			c := gpu.RunPermute(dev, data, spec.Kind, spec.Algo, cfg.B, p)
			row = append(row, fmt.Sprintf("%.3f", dev.TimeMS(c)))
		}
		t.AddRow(row...)
	}
	return t
}

// GPUBreakEven reproduces Figure 6.9: modelled combined permute+query GPU
// time versus Q, with binary search on the un-permuted array as baseline.
// The paper omits vEB from this figure because its permutation is far
// slower; it is included here with that caveat visible in the numbers.
func GPUBreakEven(cfg GPUConfig) BreakEvenResult {
	dev := cfg.device()
	p := runtime.GOMAXPROCS(0)
	n := 1 << uint(cfg.LogN)
	sorted := workload.Sorted(n)
	queries := workload.Queries(cfg.QBase, n, 0.5, cfg.Seed)

	// Permute cost per layout: fastest algorithm under the model.
	permMS := map[layout.Kind]float64{}
	permName := map[layout.Kind]string{}
	data := make([]uint64, n)
	for _, spec := range Algos() {
		workload.Refill(data)
		c := gpu.RunPermute(dev, data, spec.Kind, spec.Algo, cfg.B, p)
		ms := dev.TimeMS(c)
		if cur, ok := permMS[spec.Kind]; !ok || ms < cur {
			permMS[spec.Kind] = ms
			permName[spec.Kind] = spec.Name
		}
	}

	// Query cost per layout, per query, under the model.
	rateMS := map[layout.Kind]float64{}
	for _, k := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB} {
		arr := sorted
		if k != layout.Sorted {
			arr = layoutCopy(sorted, k, cfg.B)
		}
		c := gpu.RunQueries(dev, arr, k, cfg.B, queries, p)
		rateMS[k] = dev.TimeMS(c) / float64(len(queries))
	}

	combined := Table{
		Title: fmt.Sprintf("fig6.9: simulated GPU permute+query [ms] vs Q (N=2^%d, B=%d)", cfg.LogN, cfg.B),
		Note: fmt.Sprintf("permute: bst=%s (%.2fms) btree=%s (%.2fms) veb=%s (%.2fms)",
			permName[layout.BST], permMS[layout.BST],
			permName[layout.BTree], permMS[layout.BTree],
			permName[layout.VEB], permMS[layout.VEB]),
		Header: []string{"Q", "binary", "bst", "btree", "veb"},
	}
	for lq := cfg.MinLogQ; lq <= cfg.MaxLogQ; lq++ {
		q := float64(int(1) << uint(lq))
		row := []string{fmt.Sprintf("2^%d", lq)}
		row = append(row, fmt.Sprintf("%.2f", q*rateMS[layout.Sorted]))
		for _, k := range paperKinds() {
			row = append(row, fmt.Sprintf("%.2f", permMS[k]+q*rateMS[k]))
		}
		combined.AddRow(row...)
	}

	cross := Table{
		Title:  fmt.Sprintf("simulated GPU break-even vs binary search (N=2^%d)", cfg.LogN),
		Note:   "paper: BST >= 12.7% of N, B-tree >= 5.6% of N",
		Header: []string{"layout", "permute[ms]", "us/query", "binary us/query", "Q*", "Q*/N"},
	}
	for _, k := range paperKinds() {
		var qstar, frac string
		if rateMS[k] < rateMS[layout.Sorted] {
			q := permMS[k] / (rateMS[layout.Sorted] - rateMS[k])
			qstar = fmt.Sprintf("%.3g", q)
			frac = fmt.Sprintf("%.2f%%", 100*q/float64(n))
		} else {
			qstar, frac = "never", "-"
		}
		cross.AddRow(k.String(),
			fmt.Sprintf("%.2f", permMS[k]),
			fmt.Sprintf("%.3f", rateMS[k]*1e3),
			fmt.Sprintf("%.3f", rateMS[layout.Sorted]*1e3),
			qstar, frac)
	}
	return BreakEvenResult{Combined: combined, Crossovers: cross}
}
