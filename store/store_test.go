package store_test

import (
	"math/rand"
	"slices"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/store"
)

// shuffledOdd returns the keys 1, 3, ..., 2n-1 in random order, so every
// even value is a guaranteed miss.
func shuffledOdd(n int, seed int64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2*i + 1)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})
	return keys
}

var allKinds = []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier}

// TestRoundTrip is the key-set acceptance property: for every layout kind
// and shard count in {1, 4, 16}, building from a shuffled key set then
// querying every member hits, every non-member misses, GetBatch with
// p in {1, 8} matches the serial counts, and Export restores sorted
// order. Run under -race it also exercises the concurrent build and the
// parallel batch path for data races.
func TestRoundTrip(t *testing.T) {
	const n = 1 << 14
	keys := shuffledOdd(n, 7)
	for _, kind := range allKinds {
		for _, shards := range []int{1, 4, 16} {
			st, err := store.BuildSet(keys,
				store.WithLayout(kind), store.WithShards(shards), store.WithWorkers(8))
			if err != nil {
				t.Fatalf("%v/%d: Build: %v", kind, shards, err)
			}
			if st.Shards() != shards || st.Len() != n {
				t.Fatalf("%v/%d: got %d shards, %d keys", kind, shards, st.Shards(), st.Len())
			}
			if st.HasValues() {
				t.Fatalf("%v/%d: key set claims to carry values", kind, shards)
			}

			// Every member hits, at a Ref that reads back the key.
			for i := 0; i < n; i++ {
				x := uint64(2*i + 1)
				ref, ok := st.GetRef(x)
				if !ok {
					t.Fatalf("%v/%d: GetRef(%d) missed", kind, shards, x)
				}
				if key, _ := st.At(ref); key != x {
					t.Fatalf("%v/%d: At(%+v) = %d, want %d", kind, shards, ref, key, x)
				}
			}
			// Non-members (evens, below-range, above-range) miss.
			for i := 0; i <= n; i++ {
				if st.Contains(uint64(2 * i)) {
					t.Fatalf("%v/%d: Contains(%d) = true", kind, shards, 2*i)
				}
			}
			if st.Contains(uint64(2*n + 99)) {
				t.Fatalf("%v/%d: hit beyond maximum", kind, shards)
			}

			// Batched queries match serial results, worker count be damned.
			queries := make([]uint64, 0, 2*n)
			for i := 0; i < n; i++ {
				queries = append(queries, uint64(2*i+1), uint64(2*i))
			}
			serial := st.GetBatch(queries, 1)
			if serial.Hits != n || serial.Queries != 2*n {
				t.Fatalf("%v/%d: serial batch = %d/%d hits", kind, shards, serial.Hits, serial.Queries)
			}
			for qi, q := range queries {
				if serial.Found[qi] != (q%2 == 1) {
					t.Fatalf("%v/%d: Found[%d] = %v for query %d", kind, shards, qi, serial.Found[qi], q)
				}
			}
			for _, p := range []int{1, 8} {
				got := st.GetBatch(queries, p)
				if got.Hits != serial.Hits || got.Queries != serial.Queries {
					t.Fatalf("%v/%d p=%d: batch = %d/%d, want %d/%d",
						kind, shards, p, got.Hits, got.Queries, serial.Hits, serial.Queries)
				}
				if !slices.Equal(got.Found, serial.Found) {
					t.Fatalf("%v/%d p=%d: Found diverges from serial", kind, shards, p)
				}
				if len(got.Shards) != shards {
					t.Fatalf("%v/%d p=%d: %d shard stats", kind, shards, p, len(got.Shards))
				}
				for i := range got.Shards {
					if got.Shards[i] != serial.Shards[i] {
						t.Fatalf("%v/%d p=%d shard %d: stats %+v, want %+v",
							kind, shards, p, i, got.Shards[i], serial.Shards[i])
					}
				}
			}

			// Export inverts the build: ascending sorted order, all keys.
			out, noVals := st.Export()
			if noVals != nil {
				t.Fatalf("%v/%d: key set exported values", kind, shards)
			}
			if !slices.IsSorted(out) || len(out) != n || out[0] != 1 || out[n-1] != uint64(2*n-1) {
				t.Fatalf("%v/%d: Export not the sorted key set", kind, shards)
			}
		}
	}
}

// TestShardStatsAccount verifies per-shard statistics: every query lands
// in exactly one shard and the shard totals reconstruct the aggregate.
func TestShardStatsAccount(t *testing.T) {
	const n = 1 << 12
	st, err := store.BuildSet(shuffledOdd(n, 3),
		store.WithShards(4), store.WithLayout(layout.BTree), store.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		queries = append(queries, uint64(2*i+1), uint64(2*i))
	}
	stats := st.GetBatch(queries, 8)
	routed, hits := 0, 0
	for i, sh := range stats.Shards {
		if sh.Hits > sh.Queries {
			t.Fatalf("shard %d: %d hits out of %d queries", i, sh.Hits, sh.Queries)
		}
		routed += sh.Queries
		hits += sh.Hits
	}
	if hits != stats.Hits || stats.Hits != n {
		t.Fatalf("aggregate hits %d, shard sum %d, want %d", stats.Hits, hits, n)
	}
	// The only unrouted query value is 0, which precedes every fence and
	// appears once in the batch.
	if want := len(queries) - 1; routed != want {
		t.Fatalf("routed %d queries, want %d", routed, want)
	}
}

// TestPredecessor checks predecessor queries across shard boundaries —
// including queries that equal a fence key and queries in the gaps.
func TestPredecessor(t *testing.T) {
	const n = 1 << 10
	for _, kind := range allKinds {
		st, err := store.BuildSet(shuffledOdd(n, 5),
			store.WithShards(8), store.WithLayout(kind), store.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []uint64{0} {
			if _, _, ok := st.Predecessor(q); ok {
				t.Fatalf("%v: Predecessor(%d) should not exist", kind, q)
			}
		}
		for i := 0; i < n; i++ {
			odd := uint64(2*i + 1)
			for q, want := range map[uint64]uint64{odd: odd, odd + 1: odd} {
				key, _, ok := st.Predecessor(q)
				if !ok || key != want {
					t.Fatalf("%v: Predecessor(%d) = %d, %v; want %d", kind, q, key, ok, want)
				}
				ref, ok := st.PredecessorRef(q)
				if atKey, _ := st.At(ref); !ok || atKey != want {
					t.Fatalf("%v: PredecessorRef(%d) resolves to %d, want %d", kind, q, atKey, want)
				}
			}
		}
	}
}

// TestFences verifies the router invariant: fences ascend and every fence
// is the smallest key of its shard, so GlobalOffset ranks are consistent.
func TestFences(t *testing.T) {
	const n = 1000
	st, err := store.BuildSet(shuffledOdd(n, 9), store.WithShards(16), store.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	fences := st.Fences()
	if len(fences) != 16 || !slices.IsSorted(fences) {
		t.Fatalf("fences not 16 ascending keys: %v", fences)
	}
	off := 0
	for i := range fences {
		if st.GlobalOffset(i) != off {
			t.Fatalf("shard %d: offset %d, want %d", i, st.GlobalOffset(i), off)
		}
		if want := uint64(2*off + 1); fences[i] != want {
			t.Fatalf("shard %d: fence %d, want %d", i, fences[i], want)
		}
		off += st.ShardLen(i)
	}
	if off != n {
		t.Fatalf("shard lengths sum to %d, want %d", off, n)
	}
}

// TestDuplicatesAndTinyStores covers multiset (KeepAll) duplicate keys
// straddling shard boundaries and stores smaller than the requested
// shard count.
func TestDuplicatesAndTinyStores(t *testing.T) {
	dup := []uint64{5, 5, 5, 5, 9, 9, 1, 1, 1, 13}
	st, err := store.BuildSet(dup, store.WithShards(4), store.WithLayout(layout.BST),
		store.WithDuplicates(store.KeepAll))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(dup) {
		t.Fatalf("KeepAll store has %d keys, want %d", st.Len(), len(dup))
	}
	for _, x := range []uint64{1, 5, 9, 13} {
		if !st.Contains(x) {
			t.Fatalf("Contains(%d) = false", x)
		}
	}
	for _, x := range []uint64{0, 2, 7, 11, 14} {
		if st.Contains(x) {
			t.Fatalf("Contains(%d) = true", x)
		}
	}
	if got, _ := st.Export(); !slices.Equal(got, []uint64{1, 1, 1, 5, 5, 5, 5, 9, 9, 13}) {
		t.Fatalf("Export = %v", got)
	}

	tiny, err := store.BuildSet([]uint64{42, 7}, store.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Shards() > 2 {
		t.Fatalf("2-key store got %d shards", tiny.Shards())
	}
	if !tiny.Contains(7) || !tiny.Contains(42) || tiny.Contains(8) {
		t.Fatal("tiny store queries wrong")
	}

	if _, err := store.BuildSet([]uint64{}); err == nil {
		t.Fatal("Build of empty key set should fail")
	}
}

// TestRebuild migrates a snapshot to a new layout and shard count without
// disturbing the original.
func TestRebuild(t *testing.T) {
	const n = 4096
	st, err := store.BuildSet(shuffledOdd(n, 11),
		store.WithShards(4), store.WithLayout(layout.VEB), store.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := st.Rebuild(store.WithLayout(layout.BTree), store.WithB(4), store.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Layout() != layout.BTree || rb.B() != 4 || rb.Shards() != 16 {
		t.Fatalf("rebuild config not applied: %v b=%d shards=%d", rb.Layout(), rb.B(), rb.Shards())
	}
	if st.Layout() != layout.VEB || st.Shards() != 4 {
		t.Fatal("rebuild disturbed the original store")
	}
	for i := 0; i < n; i++ {
		if x := uint64(2*i + 1); !rb.Contains(x) || rb.Contains(x-1) {
			t.Fatalf("rebuilt store wrong at %d", x)
		}
	}
}

// TestBuildDoesNotMutateInput: the ingest copy really is a copy.
func TestBuildDoesNotMutateInput(t *testing.T) {
	keys := shuffledOdd(1<<13, 13)
	saved := slices.Clone(keys)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = keys[i] * 3
	}
	savedVals := slices.Clone(vals)
	if _, err := store.Build(keys, vals, store.WithShards(4), store.WithWorkers(8)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, saved) {
		t.Fatal("Build mutated its keys slice")
	}
	if !slices.Equal(vals, savedVals) {
		t.Fatal("Build mutated its vals slice")
	}
}
