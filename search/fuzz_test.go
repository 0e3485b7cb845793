package search

import (
	"testing"

	"implicitlayout/layout"
)

// FuzzSearchConsistency checks, from fuzzed sizes and queries, that every
// layout's Find/Predecessor/Successor agree with binary search on the
// sorted array. Each key is stored dupRaw%4+1 times, so the B-tree node
// rank also meets duplicates within and across nodes.
func FuzzSearchConsistency(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint8(1), uint8(0))
	f.Add(uint16(100), uint32(55), uint8(4), uint8(0))
	f.Add(uint16(4095), uint32(9999), uint8(8), uint8(0))
	f.Add(uint16(513), uint32(1), uint8(31), uint8(0))
	// Full 8-key nodes (8, 80 and 728 keys are perfect trees), partial
	// last nodes, and duplicates filling and straddling nodes.
	f.Add(uint16(8), uint32(9), uint8(7), uint8(0))
	f.Add(uint16(80), uint32(100), uint8(7), uint8(0))
	f.Add(uint16(728), uint32(1001), uint8(7), uint8(0))
	f.Add(uint16(733), uint32(1460), uint8(7), uint8(0))
	f.Add(uint16(83), uint32(40), uint8(7), uint8(1))
	f.Add(uint16(728), uint32(301), uint8(7), uint8(3))
	f.Add(uint16(100), uint32(25), uint8(7), uint8(7))
	f.Fuzz(func(t *testing.T, nRaw uint16, qRaw uint32, bRaw uint8, dupRaw uint8) {
		n := int(nRaw)%4000 + 1
		b := int(bRaw)%32 + 1
		q := uint64(qRaw) % uint64(2*n+4)
		copies := int(dupRaw%4) + 1
		sorted := make([]uint64, n) // 1, 3, 5, ..., each key copies times
		for i := range sorted {
			sorted[i] = uint64(2*(i/copies) + 1)
		}
		wantFind := Binary(sorted, q) >= 0
		wantPred := PredecessorBinary(sorted, q)
		wantSucc := successorBinary(sorted, q)
		for _, k := range layout.Kinds() {
			arr := layout.Build(k, sorted, b)
			ix := NewIndex(arr, k, b)
			if got := ix.Find(q); (got >= 0) != wantFind || (got >= 0 && arr[got] != q) {
				t.Fatalf("%v n=%d b=%d: Find(%d) inconsistent", k, n, b, q)
			}
			p := ix.Predecessor(q)
			switch {
			case wantPred < 0 && p >= 0, wantPred >= 0 && (p < 0 || arr[p] != sorted[wantPred]):
				t.Fatalf("%v n=%d b=%d: Predecessor(%d) inconsistent", k, n, b, q)
			}
			s := ix.Successor(q)
			switch {
			case wantSucc < 0 && s >= 0, wantSucc >= 0 && (s < 0 || arr[s] != sorted[wantSucc]):
				t.Fatalf("%v n=%d b=%d: Successor(%d) inconsistent", k, n, b, q)
			}
		}
	})
}
