// Command gpubench regenerates the GPU experiments on the simulated
// device (see internal/gpu for the hardware substitution):
// Figure 6.8 (modelled permute time per algorithm vs N) and Figure 6.9
// (modelled combined permute+query time vs Q, with break-even points).
package main

import (
	"flag"
	"os"

	"implicitlayout/bench"
)

func main() {
	minLog := flag.Int("minlog", 18, "smallest input size exponent")
	maxLog := flag.Int("maxlog", 23, "largest input size exponent")
	logN := flag.Int("logn", 23, "input size exponent for the break-even run")
	b := flag.Int("b", 32, "B-tree node capacity (paper uses 32 on the GPU: 128-byte lines)")
	qbase := flag.Int("qbase", 1<<18, "batch size used to measure per-query cost")
	minLogQ := flag.Int("minlogq", 16, "smallest query count exponent")
	maxLogQ := flag.Int("maxlogq", 26, "largest query count exponent")
	breakeven := flag.Bool("breakeven", true, "run the Figure 6.9 break-even experiment")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	cfg := bench.GPUConfig{
		MinLog: *minLog, MaxLog: *maxLog, LogN: *logN, B: *b,
		QBase: *qbase, MinLogQ: *minLogQ, MaxLogQ: *maxLogQ, Seed: 1,
	}
	emit := func(t bench.Table) {
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Fprint(os.Stdout)
		}
	}
	emit(bench.GPUPermuteTimes(cfg))
	if *breakeven {
		res := bench.GPUBreakEven(cfg)
		emit(res.Combined)
		emit(res.Crossovers)
	}
}
