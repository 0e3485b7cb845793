// Timeseries exercises the predecessor queries that dominate read-only
// time-indexed data (the "finance" and "numerical analysis" motivations
// of the paper's introduction): given a sorted array of event timestamps,
// answer "what is the latest event at or before time t?" for a large
// batch of probes. Exact-match search is useless here — almost no probe
// hits a stored timestamp — so the example shows the layouts' predecessor
// descent and compares throughput against binary search.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/search"
)

func main() {
	logN := flag.Int("logn", 22, "number of events = 2^logn")
	q := flag.Int("q", 2_000_000, "probe count")
	flag.Parse()
	n := 1 << uint(*logN)

	// Events: strictly increasing timestamps with jittered gaps.
	rng := rand.New(rand.NewSource(42))
	ts := make([]uint64, n)
	t := uint64(1_600_000_000_000) // epoch millis
	for i := range ts {
		t += uint64(rng.Intn(2000) + 1)
		ts[i] = t
	}
	span := ts[n-1] - ts[0]
	probes := make([]uint64, *q)
	for i := range probes {
		probes[i] = ts[0] + uint64(rng.Int63n(int64(span)))
	}

	fmt.Printf("time index: %d events over %.1f days, %d probes\n\n",
		n, float64(span)/86400000, *q)

	// Reference answers from the sorted array.
	want := make([]uint64, 64)
	for i := range want {
		want[i] = valueAt(search.PredecessorBinary(ts, probes[i]), ts)
	}

	baseline := measure("binary  ", ts, layout.Sorted, probes, want)
	for _, k := range layout.Kinds() {
		arr := make([]uint64, n)
		copy(arr, ts)
		start := time.Now()
		perm.Permute(arr, k, perm.CycleLeader, perm.WithWorkers(runtime.NumCPU()))
		fmt.Printf("%-8s permute %v; ", k, time.Since(start).Round(time.Millisecond))
		d := measure("", arr, k, probes, want)
		fmt.Printf("          speedup over binary: %.2fx\n", baseline.Seconds()/d.Seconds())
	}
}

func valueAt(pos int, arr []uint64) uint64 {
	if pos < 0 {
		return 0
	}
	return arr[pos]
}

var sink uint64

func measure(label string, arr []uint64, k layout.Kind, probes []uint64, want []uint64) time.Duration {
	ix := search.NewIndex(arr, k, layout.DefaultB)
	// Correctness spot check against the sorted reference.
	for i := range want {
		if got := valueAt(ix.Predecessor(probes[i]), arr); got != want[i] {
			panic(fmt.Sprintf("%v: predecessor(%d) = %d, want %d", k, probes[i], got, want[i]))
		}
	}
	start := time.Now()
	var acc uint64
	for _, p := range probes {
		if pos := ix.Predecessor(p); pos >= 0 {
			acc += arr[pos]
		}
	}
	el := time.Since(start)
	sink += acc
	fmt.Printf("%s%6.2f M predecessor queries/s\n", label, float64(len(probes))/el.Seconds()/1e6)
	return el
}
