package store_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/store"
)

// valOf is the test payload convention: the value stored under key k.
func valOf(k uint64) string { return fmt.Sprint("payload-", k) }

// buildKV returns shuffled odd keys 1..2n-1 with their valOf payloads.
func buildKV(n int, seed int64) ([]uint64, []string) {
	keys := shuffledOdd(n, seed)
	vals := make([]string, n)
	for i := range vals {
		vals[i] = valOf(keys[i])
	}
	return keys, vals
}

// TestKVRoundTrip is the record-store acceptance property: for every
// layout, Get returns the stored value for every present key, misses
// stay misses, GetBatch returns the same values in batch position, and
// Export recovers the sorted key–value pairs.
func TestKVRoundTrip(t *testing.T) {
	const n = 1 << 12
	keys, vals := buildKV(n, 21)
	for _, kind := range allKinds {
		st, err := store.Build(keys, vals,
			store.WithLayout(kind), store.WithShards(8), store.WithWorkers(4))
		if err != nil {
			t.Fatalf("%v: Build: %v", kind, err)
		}
		if !st.HasValues() || st.Len() != n {
			t.Fatalf("%v: store shape wrong", kind)
		}

		for i := 0; i < n; i++ {
			x := uint64(2*i + 1)
			got, ok := st.Get(x)
			if !ok || got != valOf(x) {
				t.Fatalf("%v: Get(%d) = %q, %v; want %q", kind, x, got, ok, valOf(x))
			}
			if _, ok := st.Get(x - 1); ok {
				t.Fatalf("%v: Get(%d) hit", kind, x-1)
			}
		}

		queries := make([]uint64, 0, 2*n)
		for i := 0; i < n; i++ {
			queries = append(queries, uint64(2*i+1), uint64(2*i))
		}
		for _, p := range []int{1, 8} {
			res := st.GetBatch(queries, p)
			if res.Hits != n {
				t.Fatalf("%v p=%d: %d hits, want %d", kind, p, res.Hits, n)
			}
			for qi, q := range queries {
				if hit := q%2 == 1; res.Found[qi] != hit {
					t.Fatalf("%v p=%d: Found[%d]=%v for %d", kind, p, qi, res.Found[qi], q)
				} else if hit && res.Vals[qi] != valOf(q) {
					t.Fatalf("%v p=%d: Vals[%d]=%q, want %q", kind, p, qi, res.Vals[qi], valOf(q))
				}
			}
		}

		outK, outV := st.Export()
		if !slices.IsSorted(outK) || len(outK) != n || len(outV) != n {
			t.Fatalf("%v: Export shape wrong", kind)
		}
		for i := range outK {
			if outV[i] != valOf(outK[i]) {
				t.Fatalf("%v: exported pair (%d, %q) mismatched", kind, outK[i], outV[i])
			}
		}
	}
}

// TestKVPredecessorReturnsValue: predecessor queries carry the payload.
func TestKVPredecessorReturnsValue(t *testing.T) {
	const n = 1 << 10
	keys, vals := buildKV(n, 23)
	st, err := store.Build(keys, vals, store.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		odd := uint64(2*i + 1)
		key, val, ok := st.Predecessor(odd + 1)
		if !ok || key != odd || val != valOf(odd) {
			t.Fatalf("Predecessor(%d) = (%d, %q, %v)", odd+1, key, val, ok)
		}
	}
}

// TestKVRebuildKeepsValues: layout migration preserves the records.
func TestKVRebuildKeepsValues(t *testing.T) {
	const n = 2048
	keys, vals := buildKV(n, 29)
	st, err := store.Build(keys, vals, store.WithLayout(layout.VEB), store.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := st.Rebuild(store.WithLayout(layout.BTree), store.WithShards(16), store.WithB(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := uint64(2*i + 1)
		if got, ok := rb.Get(x); !ok || got != valOf(x) {
			t.Fatalf("rebuilt Get(%d) = %q, %v", x, got, ok)
		}
	}
}

// TestBuildValueLengthMismatch: mismatched record slices are rejected.
func TestBuildValueLengthMismatch(t *testing.T) {
	if _, err := store.Build([]uint64{1, 2, 3}, []string{"a"}); err == nil {
		t.Fatal("Build with len(vals) != len(keys) should error")
	}
}

// TestDuplicatePolicies pins down the duplicate-key contract of Build:
// KeepLast (default) keeps the latest value per key, KeepFirst the
// earliest, KeepAll keeps every record, and Reject fails the build.
func TestDuplicatePolicies(t *testing.T) {
	keys := []uint64{5, 3, 5, 9, 3, 5}
	vals := []string{"a", "b", "c", "d", "e", "f"}

	t.Run("KeepLastDefault", func(t *testing.T) {
		st, err := store.Build(keys, vals, store.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if st.Duplicates() != store.KeepLast {
			t.Fatalf("default policy = %v", st.Duplicates())
		}
		if st.Len() != 3 {
			t.Fatalf("Len = %d, want 3 deduped keys", st.Len())
		}
		for k, want := range map[uint64]string{3: "e", 5: "f", 9: "d"} {
			if got, ok := st.Get(k); !ok || got != want {
				t.Fatalf("Get(%d) = %q, %v; want %q", k, got, ok, want)
			}
		}
	})

	t.Run("KeepFirst", func(t *testing.T) {
		st, err := store.Build(keys, vals, store.WithShards(2),
			store.WithDuplicates(store.KeepFirst))
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range map[uint64]string{3: "b", 5: "a", 9: "d"} {
			if got, ok := st.Get(k); !ok || got != want {
				t.Fatalf("Get(%d) = %q, %v; want %q", k, got, ok, want)
			}
		}
	})

	t.Run("KeepAll", func(t *testing.T) {
		st, err := store.Build(keys, vals, store.WithShards(2),
			store.WithDuplicates(store.KeepAll))
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", st.Len(), len(keys))
		}
		// Export yields all records, equal keys in input order (stable).
		outK, outV := st.Export()
		if !slices.Equal(outK, []uint64{3, 3, 5, 5, 5, 9}) {
			t.Fatalf("Export keys = %v", outK)
		}
		if !slices.Equal(outV, []string{"b", "e", "a", "c", "f", "d"}) {
			t.Fatalf("Export vals = %v", outV)
		}
		// Get returns the value of some occurrence of the key.
		if got, ok := st.Get(5); !ok || (got != "a" && got != "c" && got != "f") {
			t.Fatalf("Get(5) = %q, %v", got, ok)
		}
	})

	t.Run("Reject", func(t *testing.T) {
		if _, err := store.Build(keys, vals, store.WithDuplicates(store.Reject)); err == nil {
			t.Fatal("Reject policy should fail on duplicates")
		}
		uniq, err := store.Build([]uint64{4, 2, 8}, []string{"x", "y", "z"},
			store.WithDuplicates(store.Reject))
		if err != nil {
			t.Fatalf("Reject policy failed a duplicate-free build: %v", err)
		}
		if got, ok := uniq.Get(2); !ok || got != "y" {
			t.Fatalf("Get(2) = %q, %v", got, ok)
		}
	})

	t.Run("DedupeShrinksShards", func(t *testing.T) {
		// 6 records, 3 distinct keys, 6 shards requested: after dedupe
		// only 3 shards can be non-empty.
		st, err := store.Build(keys, vals, store.WithShards(6))
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards() > 3 {
			t.Fatalf("deduped store kept %d shards for 3 keys", st.Shards())
		}
	})
}

// TestScanStreamsSortedRecords: Scan yields every record exactly once in
// globally ascending key order, for every layout, and stops
// early when asked.
func TestScanStreamsSortedRecords(t *testing.T) {
	const n = 1 << 11
	keys, vals := buildKV(n, 31)
	for _, kind := range allKinds {
		st, err := store.Build(keys, vals,
			store.WithLayout(kind), store.WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		var gotK []uint64
		st.Scan(func(key uint64, val string) bool {
			if val != valOf(key) {
				t.Fatalf("%v: Scan yielded (%d, %q)", kind, key, val)
			}
			gotK = append(gotK, key)
			return true
		})
		if len(gotK) != n || !slices.IsSorted(gotK) {
			t.Fatalf("%v: Scan yielded %d keys, sorted=%v", kind, len(gotK), slices.IsSorted(gotK))
		}
		count := 0
		st.Scan(func(uint64, string) bool {
			count++
			return count < n/3
		})
		if count != n/3 {
			t.Fatalf("%v: early stop scanned %d", kind, count)
		}
	}
}

// TestRangeAgainstSortedReference is the cross-shard Range acceptance
// property: random intervals — empty ones, shard-boundary-straddling
// ones, and whole-store ones — yield exactly the records the sorted
// reference slice contains, in order, for every layout.
func TestRangeAgainstSortedReference(t *testing.T) {
	const n = 1 << 11
	keys, vals := buildKV(n, 37)
	sortedK := slices.Clone(keys)
	slices.Sort(sortedK)
	rng := rand.New(rand.NewSource(41))
	for _, kind := range allKinds {
		st, err := store.Build(keys, vals,
			store.WithLayout(kind), store.WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		fences := st.Fences()

		intervals := [][2]uint64{
			{0, uint64(2*n + 10)},            // whole store, bounds outside key range
			{1, uint64(2*n - 1)},             // whole store, exact bounds
			{17, 3},                          // inverted: empty
			{4, 4},                           // between keys: empty
			{0, 0},                           // below every key: empty
			{uint64(2*n + 1), uint64(4 * n)}, // above every key: empty
		}
		// Intervals straddling every shard boundary, including ones
		// starting/ending exactly on a fence key.
		for i := 1; i < len(fences); i++ {
			f := fences[i]
			intervals = append(intervals,
				[2]uint64{f - 2, f + 2}, [2]uint64{f, f}, [2]uint64{f - 3, f})
		}
		for trial := 0; trial < 40; trial++ {
			lo := uint64(rng.Intn(2*n + 2))
			intervals = append(intervals, [2]uint64{lo, lo + uint64(rng.Intn(n))})
		}

		for _, iv := range intervals {
			lo, hi := iv[0], iv[1]
			var want []uint64
			for _, k := range sortedK {
				if k >= lo && k <= hi {
					want = append(want, k)
				}
			}
			var got []uint64
			st.Range(lo, hi, func(key uint64, val string) bool {
				if val != valOf(key) {
					t.Fatalf("%v [%d,%d]: Range yielded (%d, %q)", kind, lo, hi, key, val)
				}
				got = append(got, key)
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%v [%d,%d]:\n got %v\nwant %v", kind, lo, hi, got, want)
			}
		}

		// Early stop crosses a shard boundary: ask for more records
		// than one shard holds, stop after shardLen+3.
		limit := st.ShardLen(0) + 3
		count := 0
		st.Range(0, uint64(2*n), func(uint64, string) bool {
			count++
			return count < limit
		})
		if count != limit {
			t.Fatalf("%v: cross-shard early stop yielded %d, want %d", kind, count, limit)
		}
	}
}

// TestScanKeepAllDuplicates: a KeepAll multiset scans every duplicate.
func TestScanKeepAllDuplicates(t *testing.T) {
	keys := []uint64{7, 7, 3, 7, 3, 11}
	vals := []string{"a", "b", "c", "d", "e", "f"}
	st, err := store.Build(keys, vals, store.WithShards(3),
		store.WithDuplicates(store.KeepAll), store.WithLayout(layout.BST))
	if err != nil {
		t.Fatal(err)
	}
	var gotK []uint64
	var gotV []string
	st.Scan(func(key uint64, val string) bool {
		gotK = append(gotK, key)
		gotV = append(gotV, val)
		return true
	})
	if !slices.Equal(gotK, []uint64{3, 3, 7, 7, 7, 11}) {
		t.Fatalf("Scan keys = %v", gotK)
	}
	if !slices.Equal(gotV, []string{"c", "e", "a", "b", "d", "f"}) {
		t.Fatalf("Scan vals = %v", gotV)
	}
}

// TestSetZeroValues: the Set alias serves struct{} values and Get still
// reports presence.
func TestSetZeroValues(t *testing.T) {
	st, err := store.BuildSet([]uint64{10, 20, 30}, store.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var set *store.Set[uint64] = st // the alias really is the same type
	if _, ok := set.Get(20); !ok {
		t.Fatal("Get(20) missed")
	}
	if _, ok := set.Get(21); ok {
		t.Fatal("Get(21) hit")
	}
}
