// Lowmem demonstrates serving a dataset whose working set does not fit
// the Go heap: the "beyond RAM" property the zero-copy segment codec
// buys. The paper's permutation is in place, so building a search-tree
// layout never needs a second copy of the data — and because an implicit
// layout is a pointer-free array, the permuted array can be written to
// disk once and then served forever from the OS page cache through a
// read-only mapping, with the Go heap holding only the store's O(shards)
// skeleton.
//
// The program runs the lifecycle in one process:
//
//  1. build a Store of 2^logn key–value records (16 bytes per record)
//     and persist it as a raw (v2.1) segment file;
//  2. drop the build from the heap and clamp the runtime with a
//     GOMEMLIMIT-style memory limit far below the dataset size;
//  3. reopen the file twice — decoded onto the heap vs mapped — timing
//     both, then serve verified point queries and a range scan from the
//     mapped store while measuring how small the heap stays.
//
// Run it with the defaults (64 MiB of records, 16 MiB memory limit):
//
//	go run ./examples/lowmem
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"implicitlayout/store"
)

func main() {
	logN := flag.Int("logn", 22, "record count = 2^logn (16 bytes per record)")
	limitMiB := flag.Int64("memlimit", 16, "Go soft memory limit while serving, MiB")
	flag.Parse()
	n := 1 << uint(*logN)
	dataMiB := float64(n*16) / (1 << 20)

	// Phase 1: build and persist. The build needs the records on the
	// heap — that is exactly the cost serving will not pay.
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(2*i + 1)
		vals[i] = uint64(i) * 3
	}
	st, err := store.Build(keys, vals)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "lowmem")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "records.seg")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	written, err := st.WriteTo(f)
	if err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("dataset: %d records = %.0f MiB, segment file %.0f MiB\n\n",
		n, dataMiB, float64(written)/(1<<20))

	// Phase 2: forget the build and clamp the heap well below the data.
	st, keys, vals = nil, nil, nil
	runtime.GC()
	debug.SetMemoryLimit(*limitMiB << 20)
	fmt.Printf("serving under a %d MiB memory limit (dataset is %.0fx larger)\n\n",
		*limitMiB, dataMiB/float64(*limitMiB))

	// Phase 3: cold-open both ways, then serve from the mapping.
	start := time.Now()
	decoded, err := store.OpenStore[int64, uint64](path)
	if err != nil {
		panic(err)
	}
	decodeMS := float64(time.Since(start).Microseconds()) / 1e3
	if decoded.Len() != n {
		panic("decode reopen lost records")
	}
	decoded = nil
	_ = decoded
	runtime.GC()

	start = time.Now()
	served, err := store.OpenStore[int64, uint64](path, store.WithMmap(true))
	if err != nil {
		panic(err)
	}
	mmapMS := float64(time.Since(start).Microseconds()) / 1e3
	fmt.Printf("cold open, heap decode: %8.2f ms (reads and decodes every record)\n", decodeMS)
	fmt.Printf("cold open, mmap:        %8.2f ms (maps the file, decodes nothing)\n\n", mmapMS)
	if served.Mapped() {
		fmt.Println("store is served zero-copy from the page cache")
	} else {
		fmt.Println("(no mmap on this platform: served from the heap instead)")
	}

	// Point queries against the mapped store, verified.
	rng := rand.New(rand.NewSource(1))
	queries := make([]int64, 1<<16)
	for i := range queries {
		queries[i] = int64(rng.Intn(2 * n)) // ~half hit
	}
	res := served.GetBatch(queries, runtime.NumCPU())
	for i, q := range queries {
		if res.Found[i] && res.Vals[i] != uint64(q/2)*3 {
			panic("wrong value served")
		}
	}
	// An ordered range through the middle of the key space.
	lo, hi := int64(n), int64(n+64)
	count := 0
	served.Range(lo, hi, func(k int64, v uint64) bool { count++; return true })

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)
	fmt.Printf("\nserved %d point queries (%d hits) + a %d-record range scan\n",
		len(queries), res.Hits, count)
	fmt.Printf("heap while serving: %.1f MiB for a %.0f MiB dataset (%.1f%%)\n",
		heapMiB, dataMiB, 100*heapMiB/dataMiB)
	if served.Mapped() && heapMiB > dataMiB/4 {
		panic("serving pulled the dataset onto the heap — not zero-copy!")
	}
}
