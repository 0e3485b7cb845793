// Sharded store walkthrough: ingest an unsorted key set, let the parallel
// pipeline sort + partition + permute it into a sharded vEB key set, serve
// concurrent batched queries with per-shard statistics, then export the
// sorted snapshot and migrate it to a B-tree layout — the serving-layer
// tour of the library. (For value payloads and range scans, see
// examples/kvstore.)
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"implicitlayout/layout"
	"implicitlayout/store"
)

func main() {
	// 1. Start from UNSORTED data — the store owns the whole pipeline.
	//    (Odd keys, so every even value is a guaranteed miss.)
	const n = 1 << 20
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2*i + 1)
	}
	rand.New(rand.NewSource(42)).Shuffle(n, func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})

	// 2. Build: parallel sort, range-partition into shards, and permute
	//    every shard concurrently into the vEB layout. BuildSet is the
	//    keys-only constructor; store.Build ingests key–value pairs.
	st, err := store.BuildSet(keys,
		store.WithShards(8),
		store.WithLayout(layout.VEB),
		store.WithWorkers(runtime.NumCPU()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("built %d keys into %d vEB shards; fences %v...\n",
		st.Len(), st.Shards(), st.Fences()[:3])

	// 3. Point queries route through the fence keys to one shard.
	for _, q := range []uint64{1, 99991, 2*n - 1, 42} {
		if ref, ok := st.GetRef(q); ok {
			fmt.Printf("GetRef(%d) -> shard %d pos %d\n", q, ref.Shard, ref.Pos)
		} else {
			fmt.Printf("GetRef(%d) -> not present\n", q)
		}
	}
	if key, _, ok := st.Predecessor(100); ok {
		fmt.Printf("Pred(100) -> %d\n", key)
	}

	// 4. The store is an immutable snapshot: readers share it freely.
	//    Here four goroutines each serve a batch; GetBatch itself fans
	//    each batch out over its own bounded worker pool.
	rng := rand.New(rand.NewSource(7))
	queries := make([]uint64, 1<<16)
	for i := range queries {
		queries[i] = uint64(rng.Intn(2 * n))
	}
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := st.GetBatch(queries, 4)
			busiest := store.ShardStats{}
			for _, sh := range res.Shards {
				if sh.Queries > busiest.Queries {
					busiest = sh
				}
			}
			fmt.Printf("reader: %d/%d hits; busiest shard answered %d\n",
				res.Hits, res.Queries, busiest.Queries)
		}()
	}
	wg.Wait()

	// 5. Export the sorted snapshot (layout.Read per shard, concurrently)
	//    and migrate the same keys to a 16-shard B-tree store — the
	//    original store keeps serving until the swap.
	sorted, _ := st.Export()
	fmt.Printf("export: sorted[0]=%d sorted[%d]=%d\n", sorted[0], n-1, sorted[n-1])

	migrated, err := st.Rebuild(store.WithLayout(layout.BTree), store.WithShards(16))
	if err != nil {
		panic(err)
	}
	fmt.Printf("migrated to %d %v shards; Contains(99991)=%v\n",
		migrated.Shards(), migrated.Layout(), migrated.Contains(99991))
}
