package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"implicitlayout/layout"
)

// ringKernel runs one layout's interleaved kernel with an explicit ring
// size — the knob findBatchChunk fixes at batchRing.
func ringKernel(kind layout.Kind, arr []uint64, b int, queries []uint64, pos []int, ring int) int {
	switch kind {
	case layout.Sorted:
		return binBatchRing(arr, queries, pos, ring)
	case layout.BST:
		return bstBatchRing(arr, queries, pos, ring)
	case layout.BTree:
		return btreeBatchRing(arr, b, queries, pos, ring)
	}
	panic(fmt.Sprintf("no ring kernel for %v", kind))
}

// ringKinds lists the layouts that have a ring kernel: every one but
// vEB and hier, whose batches descend one query at a time.
func ringKinds() []layout.Kind {
	return []layout.Kind{layout.Sorted, layout.BST, layout.BTree}
}

func allKindsWithSorted() []layout.Kind {
	return append([]layout.Kind{layout.Sorted}, layout.Kinds()...)
}

// TestBatchKernelsMatchSerial: on unique keys, every ring kernel returns
// exactly the serial Find position for every query — across layouts,
// ring sizes (including 1 and rings larger than the batch), batch sizes
// (empty, smaller than the ring, non-multiples of the ring), and array
// sizes with partial last levels.
func TestBatchKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 7, 26, 100, 513, 4095} {
		sorted := oddKeys(n)
		for _, b := range []int{1, 3, 8} {
			for _, kind := range ringKinds() {
				arr := layout.Build(kind, sorted, b)
				ix := NewIndex(arr, kind, b)
				for _, nq := range []int{0, 1, 5, 31, 32, 33, 100} {
					queries := make([]uint64, nq)
					for i := range queries {
						queries[i] = uint64(rng.Intn(2*n + 2))
					}
					want := make([]int, nq)
					wantHits := 0
					for i, q := range queries {
						want[i] = ix.Find(q)
						if want[i] >= 0 {
							wantHits++
						}
					}
					for _, ring := range []int{1, 2, 8, 16, 32, 64} {
						pos := make([]int, nq)
						for i := range pos {
							pos[i] = -2 // poison: every slot must be written
						}
						hits := ringKernel(kind, arr, b, queries, pos, ring)
						if hits != wantHits {
							t.Fatalf("%v n=%d b=%d nq=%d ring=%d: hits = %d, want %d",
								kind, n, b, nq, ring, hits, wantHits)
						}
						for i := range pos {
							if pos[i] != want[i] {
								t.Fatalf("%v n=%d b=%d nq=%d ring=%d: pos[%d] = %d, want %d (query %d)",
									kind, n, b, nq, ring, i, pos[i], want[i], queries[i])
							}
						}
						// nil pos: count-only contract.
						if hits := ringKernel(kind, arr, b, queries, nil, ring); hits != wantHits {
							t.Fatalf("%v n=%d b=%d nq=%d ring=%d: nil-pos hits = %d, want %d",
								kind, n, b, nq, ring, hits, wantHits)
						}
					}
				}
			}
		}
	}
}

// TestBatchKernelsEmptyArray: kernels on an empty index miss every query
// and still write every position.
func TestBatchKernelsEmptyArray(t *testing.T) {
	queries := []uint64{0, 1, 2}
	for _, kind := range ringKinds() {
		pos := []int{7, 7, 7}
		if hits := ringKernel(kind, nil, 4, queries, pos, 8); hits != 0 {
			t.Fatalf("%v: empty array returned %d hits", kind, hits)
		}
		for i, p := range pos {
			if p != -1 {
				t.Fatalf("%v: pos[%d] = %d on empty array, want -1", kind, i, p)
			}
		}
	}
}

// TestBatchKernelsDuplicates: with duplicate keys a kernel may land on a
// different equal occurrence than the serial descent (the lockstep BST
// answer is the in-order-lowest equal key; serial BST stops at the
// topmost on its path), so parity is semantic: hit iff serial hits, and
// any returned position must hold the query.
func TestBatchKernelsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{9, 64, 257} {
		sorted := make([]uint64, n)
		k := uint64(1)
		for i := range sorted {
			sorted[i] = k
			if rng.Intn(3) > 0 { // runs of duplicates, odd values only
				k += 2
			}
		}
		for _, b := range []int{2, 8} {
			for _, kind := range ringKinds() {
				arr := layout.Build(kind, sorted, b)
				ix := NewIndex(arr, kind, b)
				queries := make([]uint64, 200)
				for i := range queries {
					queries[i] = uint64(rng.Intn(int(sorted[n-1]) + 2))
				}
				for _, ring := range []int{1, 16} {
					pos := make([]int, len(queries))
					hits := ringKernel(kind, arr, b, queries, pos, ring)
					wantHits := 0
					for i, q := range queries {
						serial := ix.Find(q)
						if serial >= 0 {
							wantHits++
						}
						if (pos[i] >= 0) != (serial >= 0) {
							t.Fatalf("%v n=%d b=%d ring=%d: query %d ring pos %d, serial %d",
								kind, n, b, ring, q, pos[i], serial)
						}
						if pos[i] >= 0 && arr[pos[i]] != q {
							t.Fatalf("%v n=%d b=%d ring=%d: pos[%d] = %d holds %d, want %d",
								kind, n, b, ring, i, pos[i], arr[pos[i]], q)
						}
					}
					if hits != wantHits {
						t.Fatalf("%v n=%d b=%d ring=%d: hits = %d, want %d", kind, n, b, ring, hits, wantHits)
					}
				}
			}
		}
	}
}

// TestFindBatchInto: positions come back aligned with queries through
// the public batch entry point, on both the serial and parallel paths
// and on chunks both above and below the interleave threshold.
func TestFindBatchInto(t *testing.T) {
	const n, b = 1 << 12, 8
	sorted := oddKeys(n)
	rng := rand.New(rand.NewSource(3))
	for _, kind := range allKindsWithSorted() {
		arr := layout.Build(kind, sorted, b)
		ix := NewIndex(arr, kind, b)
		for _, nq := range []int{InterleaveMinBatch / 2, 8 * InterleaveMinBatch} {
			queries := make([]uint64, nq)
			for i := range queries {
				queries[i] = uint64(rng.Intn(2*n + 2))
			}
			for _, p := range []int{1, 4} {
				pos := make([]int, nq)
				hits := ix.FindBatchInto(queries, pos, p)
				wantHits := 0
				for i, q := range queries {
					want := ix.Find(q)
					if want >= 0 {
						wantHits++
					}
					if pos[i] != want {
						t.Fatalf("%v nq=%d p=%d: pos[%d] = %d, want %d", kind, nq, p, i, pos[i], want)
					}
				}
				if hits != wantHits {
					t.Fatalf("%v nq=%d p=%d: hits = %d, want %d", kind, nq, p, hits, wantHits)
				}
				if got := ix.FindBatch(queries, p); got != wantHits {
					t.Fatalf("%v nq=%d p=%d: FindBatch = %d, want %d", kind, nq, p, got, wantHits)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FindBatchInto with mismatched pos length did not panic")
		}
	}()
	ix := NewIndex(sorted, layout.Sorted, 0)
	ix.FindBatchInto(make([]uint64, 4), make([]int, 3), 1)
}

// FuzzBatchParity cross-checks every ring kernel, and FindBatchInto on
// every layout, against serial Find on fuzzed sizes, block capacities,
// ring sizes, and query streams.
func FuzzBatchParity(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(1), uint64(0))
	f.Add(uint16(100), uint8(4), uint8(8), uint64(42))
	f.Add(uint16(4095), uint8(8), uint8(33), uint64(7))
	f.Add(uint16(513), uint8(31), uint8(16), uint64(99))
	f.Fuzz(func(t *testing.T, nRaw uint16, bRaw, ringRaw uint8, seed uint64) {
		n := int(nRaw)%2000 + 1
		b := int(bRaw)%16 + 1
		ring := int(ringRaw)%48 + 1
		sorted := oddKeys(n)
		queries := make([]uint64, 80)
		rng := seed
		for i := range queries {
			rng = rng*6364136223846793005 + 1442695040888963407
			queries[i] = rng % uint64(2*n+3)
		}
		for _, kind := range allKindsWithSorted() {
			arr := layout.Build(kind, sorted, b)
			ix := NewIndex(arr, kind, b)
			want := make([]int, len(queries))
			wantHits := 0
			for i, q := range queries {
				if want[i] = ix.Find(q); want[i] >= 0 {
					wantHits++
				}
			}
			check := func(path string, pos []int, hits int) {
				for i := range pos {
					if pos[i] != want[i] {
						t.Fatalf("%v n=%d b=%d %s: pos[%d] = %d, want %d (query %d)",
							kind, n, b, path, i, pos[i], want[i], queries[i])
					}
				}
				if hits != wantHits {
					t.Fatalf("%v n=%d b=%d %s: hits = %d, want %d", kind, n, b, path, hits, wantHits)
				}
			}
			pos := make([]int, len(queries))
			check("FindBatchInto", pos, ix.FindBatchInto(queries, pos, 1))
			if slices.Contains(ringKinds(), kind) {
				pos := make([]int, len(queries))
				check(fmt.Sprintf("ring%d", ring), pos, ringKernel(kind, arr, b, queries, pos, ring))
			}
		}
	})
}
