// Staticdb models the workload that motivates the paper (Khuong & Morin
// report binary searches on static sorted arrays eating 10% of an
// ad-bidding engine's compute): a read-only key/value store that receives
// a large batch of point lookups. It builds the store once, permutes the
// key column into each layout, and reports lookups/second against the
// binary-search baseline, then shows the break-even batch size measured
// on this machine.
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
	logN := flag.Int("logn", 22, "number of records = 2^logn")
	q := flag.Int("q", 2_000_000, "lookup batch size")
	flag.Parse()
	n := 1 << uint(*logN)

	// The store: a sorted key column plus a parallel payload column.
	// Lookups resolve a key to its position, then read the payload with
	// the *same* index because the payload column is permuted alongside.
	keys := make([]uint64, n)
	payload := make([]uint32, n)
	for i := range keys {
		keys[i] = uint64(3*i) + 7
		payload[i] = rand.Uint32()
	}
	queries := make([]uint64, *q)
	for i := range queries {
		queries[i] = uint64(3*rand.Intn(n)) + 7 // always present
	}

	fmt.Printf("static store: %d records, %d lookups, %d workers\n\n", n, *q, runtime.NumCPU())

	base := run("binary  ", keys, payload, layout.Sorted, queries, 0)
	for _, k := range layout.Kinds() {
		pk := make([]uint64, n)
		copy(pk, keys)
		pv := make([]uint32, n)
		copy(pv, payload)
		start := time.Now()
		perm.Permute(pk, k, perm.CycleLeader, perm.WithWorkers(runtime.NumCPU()))
		// Permute the payload column with the identical permutation so
		// positions line up. (A production system would permute a row
		// index or interleave key+payload structs.)
		perm.Permute(pv, k, perm.CycleLeader, perm.WithWorkers(runtime.NumCPU()))
		ptime := time.Since(start)
		lookup := run(fmt.Sprintf("%-8s", k), pk, pv, k, queries, ptime)
		if lookup < base {
			// break-even: permute cost amortized after this many lookups
			perQGain := (base - lookup).Seconds() / float64(*q)
			fmt.Printf("          -> permute pays for itself after %.0f lookups (%.2f%% of N)\n",
				ptime.Seconds()/perQGain, 100*ptime.Seconds()/perQGain/float64(n))
		}
	}
}

var sink uint64

func run(name string, keys []uint64, payload []uint32, k layout.Kind, queries []uint64, ptime time.Duration) time.Duration {
	ix := search.NewIndex(keys, k, layout.DefaultB)
	start := time.Now()
	var acc uint64
	for _, q := range queries {
		if pos := ix.Find(q); pos >= 0 {
			acc += uint64(payload[pos])
		}
	}
	el := time.Since(start)
	sink += acc
	rate := float64(len(queries)) / el.Seconds() / 1e6
	if ptime > 0 {
		fmt.Printf("%s %6.2f M lookups/s   (one-time permute: %v)\n", name, rate, ptime.Round(time.Millisecond))
	} else {
		fmt.Printf("%s %6.2f M lookups/s   (no permutation)\n", name, rate)
	}
	return el
}
