package perm

import (
	"reflect"
	"testing"

	"implicitlayout/layout"
)

// FuzzPermuteMatchesOracle drives every algorithm/layout/parameter
// combination from fuzzed inputs and checks the result against the
// reference layout. Run with `go test -fuzz FuzzPermuteMatchesOracle
// ./perm` for continuous exploration; the seed corpus runs in CI mode.
func FuzzPermuteMatchesOracle(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint16(26), uint8(1), uint8(1), uint8(3), uint8(2))
	f.Add(uint16(1000), uint8(2), uint8(0), uint8(8), uint8(3))
	f.Add(uint16(4095), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint16(511), uint8(0), uint8(1), uint8(7), uint8(4))
	f.Fuzz(func(t *testing.T, nRaw uint16, kindRaw, algoRaw, bRaw, pRaw uint8) {
		n := int(nRaw) % 3000
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
	})
}

// FuzzUnpermuteRoundTrip checks the inverse transformations from fuzzed
// parameters: Unpermute on keys alone, and UnpermuteWith on keys with a
// value slice riding the same permutation, so both entry points of the
// shared inverse are exercised.
func FuzzUnpermuteRoundTrip(f *testing.F) {
	f.Add(uint16(100), uint8(0), uint8(4))
	f.Add(uint16(4096), uint8(1), uint8(8))
	f.Add(uint16(80), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, nRaw uint16, kindRaw, bRaw uint8) {
		n := int(nRaw) % 3000
		kind := layout.Kinds()[int(kindRaw)%len(layout.Kinds())]
		b := int(bRaw)%16 + 1
		sorted := sortedKeys(n)
		got := make([]uint64, n)
		copy(got, sorted)
		Permute(got, kind, CycleLeader, WithB(b), WithWorkers(2))
		if err := Unpermute(got, kind, WithB(b), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sorted) {
			t.Fatalf("n=%d %v b=%d: round trip failed", n, kind, b)
		}
		keys := make([]uint64, n)
		copy(keys, sorted)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(-i)
		}
		PermuteWith(keys, vals, kind, CycleLeader, WithB(b), WithWorkers(2))
		if err := UnpermuteWith(keys, vals, kind, WithB(b), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keys, sorted) {
			t.Fatalf("n=%d %v b=%d: paired round trip lost key order", n, kind, b)
		}
		for i, v := range vals {
			if v != int32(-i) {
				t.Fatalf("n=%d %v b=%d: value %d of key rank %d, want %d", n, kind, b, v, i, -i)
			}
		}
	})
}
