package perm

import (
	"reflect"
	"testing"

	"implicitlayout/layout"
)

// maxFuzzN bounds the fuzzed sizes. It is above 2^13-1, so fuzzed vEB
// trees of up to 13 levels recurse above the slice backends' cycle-walk
// leaf (perfect subtrees of up to 2^11-1 records) before they take it.
const maxFuzzN = 1<<13 + 8

// FuzzPermuteMatchesOracle drives every algorithm/layout/parameter
// combination from fuzzed inputs and checks the result against the
// reference layout, for Permute on the keys alone and for PermuteWith,
// whose values must follow their keys. Run with `go test -fuzz
// FuzzPermuteMatchesOracle ./perm` for continuous exploration; the seed
// corpus runs in CI mode. The vEB cycle-leader seeds at 2047, 2048, 4095
// and 8191 are the cycle-walk leaf's largest perfect size, one past it
// and the next two perfect sizes. The vEB seeds at 2^L + 31, 2^L + 32 and
// 2^L + 33 (L = 11, 12) straddle the slice backends' front-form
// boundaries: the first bottom's 32 last-level slots exactly full (s = 0),
// then one and two keys into the next bottom (f = 1); 6144 is 3*2^11.
func FuzzPermuteMatchesOracle(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint16(26), uint8(1), uint8(1), uint8(3), uint8(2))
	f.Add(uint16(1000), uint8(2), uint8(0), uint8(8), uint8(3))
	f.Add(uint16(4095), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint16(511), uint8(0), uint8(1), uint8(7), uint8(4))
	f.Add(uint16(2047), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(uint16(2048), uint8(2), uint8(1), uint8(1), uint8(3))
	f.Add(uint16(8191), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(uint16(2079), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint16(2080), uint8(2), uint8(0), uint8(1), uint8(2))
	f.Add(uint16(2081), uint8(2), uint8(1), uint8(1), uint8(3))
	f.Add(uint16(4127), uint8(2), uint8(0), uint8(1), uint8(3))
	f.Add(uint16(4128), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(uint16(4129), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint16(6144), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(uint16(6144), uint8(1), uint8(1), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint16, kindRaw, algoRaw, bRaw, pRaw uint8) {
		n := int(nRaw) % maxFuzzN
		kind := layout.Kinds()[int(kindRaw)%len(layout.Kinds())]
		algo := Algorithms()[int(algoRaw)%2]
		b := int(bRaw)%16 + 1
		p := int(pRaw)%4 + 1
		sorted := sortedKeys(n)
		got := make([]uint64, n)
		copy(got, sorted)
		Permute(got, kind, algo, WithB(b), WithWorkers(p))
		want := layout.Build(kind, sorted, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d %v/%v b=%d p=%d: mismatch", n, kind, algo, b, p)
		}
		keys := make([]uint64, n)
		copy(keys, sorted)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(-i)
		}
		PermuteWith(keys, vals, kind, algo, WithB(b), WithWorkers(p))
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("n=%d %v/%v b=%d p=%d: paired keys mismatch", n, kind, algo, b, p)
		}
		for i, v := range vals {
			if rank := int32(keys[i] / 3); v != -rank {
				t.Fatalf("n=%d %v/%v b=%d p=%d: value %d beside key rank %d", n, kind, algo, b, p, v, rank)
			}
		}
	})
}

// FuzzPermuteReadRoundTrip checks that layout.Read, the one way back to
// sorted order, undoes the paper's permutations: Permute on keys alone
// and PermuteWith on keys with a value slice, over fuzzed sizes, node
// capacities, layouts, families and worker counts, each read back in
// place to the sorted keys and pairs. The vEB seeds sit at the cycle-walk
// leaf's largest perfect size, one past it and the next perfect size.
func FuzzPermuteReadRoundTrip(f *testing.F) {
	f.Add(uint16(100), uint8(0), uint8(4), uint8(0), uint8(2))
	f.Add(uint16(4096), uint8(1), uint8(8), uint8(1), uint8(2))
	f.Add(uint16(80), uint8(3), uint8(9), uint8(1), uint8(3))
	f.Add(uint16(2047), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint16(2048), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(uint16(4095), uint8(2), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint16, kindRaw, bRaw, algoRaw, pRaw uint8) {
		n := int(nRaw) % maxFuzzN
		kind := layout.Kinds()[int(kindRaw)%len(layout.Kinds())]
		b := int(bRaw)%16 + 1
		algo := Algorithms()[int(algoRaw)%2]
		p := int(pRaw)%4 + 1
		sorted := sortedKeys(n)
		got := make([]uint64, n)
		copy(got, sorted)
		Permute(got, kind, algo, WithB(b), WithWorkers(p))
		layout.Read[uint64, int32](kind, got, nil, got, nil, b)
		if !reflect.DeepEqual(got, sorted) {
			t.Fatalf("n=%d %v/%v b=%d p=%d: round trip failed", n, kind, algo, b, p)
		}
		keys := make([]uint64, n)
		copy(keys, sorted)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(-i)
		}
		PermuteWith(keys, vals, kind, algo, WithB(b), WithWorkers(p))
		layout.Read(kind, keys, vals, keys, vals, b)
		if !reflect.DeepEqual(keys, sorted) {
			t.Fatalf("n=%d %v/%v b=%d p=%d: paired round trip lost key order", n, kind, algo, b, p)
		}
		for i, v := range vals {
			if v != int32(-i) {
				t.Fatalf("n=%d %v/%v b=%d p=%d: value %d of key rank %d, want %d", n, kind, algo, b, p, v, i, -i)
			}
		}
	})
}
