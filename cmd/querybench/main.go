// Command querybench regenerates Figure 6.5: the time to answer 10^6
// uniformly random queries on each search-tree layout versus the array
// size, with binary search as baseline. Go has no prefetch instruction,
// so the figure's prefetched-BST series is not reproduced.
package main

import (
	"flag"
	"os"

	"implicitlayout/bench"
)

func main() {
	minLog := flag.Int("minlog", 16, "smallest input size exponent")
	maxLog := flag.Int("maxlog", 24, "largest input size exponent")
	q := flag.Int("q", 1_000_000, "queries per measurement")
	b := flag.Int("b", 8, "B-tree node capacity")
	trials := flag.Int("trials", 3, "timed repetitions per cell")
	seed := flag.Int64("seed", 1, "query generator seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	t := bench.QueryTimes(bench.QueryConfig{
		MinLog: *minLog, MaxLog: *maxLog, Q: *q, B: *b, Trials: *trials, Seed: *seed,
	})
	if *csv {
		t.CSV(os.Stdout)
	} else {
		t.Fprint(os.Stdout)
	}
}
