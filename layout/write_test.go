package layout

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// writeKinds lists every layout Write handles with the node
// capacities worth checking: B matters to BTree and Hier only.
func writeKinds() []struct {
	k Kind
	b int
} {
	return []struct {
		k Kind
		b int
	}{{Sorted, 8}, {BST, 8}, {VEB, 8}, {BTree, 8}, {BTree, 3}, {Hier, 8}, {Hier, 3}}
}

// checkWrite writes 0..n-1 (with values 3i+1, or keys only) into layout
// k with vEB table leaves of leaf records and requires position pos to
// hold rank ranks[pos], then reads the layout back into fresh arrays,
// requires 0..n-1 there and the layout untouched, and reads it back in
// place.
func checkWrite(t *testing.T, k Kind, n, b, leaf int, withVals bool, ranks []int) {
	t.Helper()
	keys := make([]int32, n)
	var vals, back []uint64
	if withVals {
		vals, back = make([]uint64, n), make([]uint64, n)
	}
	for i := range keys {
		keys[i] = int32(i)
		if withVals {
			vals[i] = 3*uint64(i) + 1
		}
	}
	write(k, keys, vals, b, leaf)
	laid := func(what string) {
		for pos, r := range ranks {
			if int(keys[pos]) != r || (withVals && vals[pos] != 3*uint64(r)+1) {
				t.Fatalf("%v n=%d b=%d leaf=%d vals=%v: %s rank %d at pos %d, want %d",
					k, n, b, leaf, withVals, what, keys[pos], pos, r)
			}
		}
	}
	laid("Write put")
	sorted := make([]int32, n)
	read(k, sorted, back, keys, vals, b, leaf)
	isSorted := func(what string, keys []int32, vals []uint64) {
		for i := range keys {
			if int(keys[i]) != i || (withVals && vals[i] != 3*uint64(i)+1) {
				t.Fatalf("%v n=%d b=%d leaf=%d vals=%v: %s put rank %d at %d", k, n, b, leaf, withVals, what, keys[i], i)
			}
		}
	}
	isSorted("Read", sorted, back)
	laid("after Read, source holds")
	read(k, keys, vals, keys, vals, b, leaf)
	isSorted("Read in place", keys, vals)
}

// TestWriterMatchesRanks checks Write against the rank table and Read
// back to sorted order for every n up to 4096, on every layout, keys
// only and with values.
func TestWriterMatchesRanks(t *testing.T) {
	for _, c := range writeKinds() {
		t.Run(fmt.Sprintf("%v/b=%d", c.k, c.b), func(t *testing.T) {
			t.Parallel()
			for n := 0; n <= 4096; n++ {
				ranks := Ranks(c.k, n, c.b)
				checkWrite(t, c.k, n, c.b, vebLeaf, n%2 == 0, ranks)
			}
		})
	}
}

// TestWriterLeafBoundaries runs the vEB recursion with small table
// leaves, so every step of it — tops and bottoms larger than a leaf,
// recursion below the root — runs at sizes the production leaf only
// reaches past 2^20 records; sizes sit at leaf−1, leaf and leaf+1 of
// both the leaf and the bottoms, and around 2^15 records.
func TestWriterLeafBoundaries(t *testing.T) {
	for _, leaf := range []int{1, 3, 17, vebLeaf} {
		sizes := []int{leaf - 1, leaf, leaf + 1, 2*leaf + 1, leaf*leaf - 1, leaf * leaf, leaf*leaf + 1,
			1 << 15, 1<<15 + 1, 3<<15 - 7}
		for n := 1; n <= 600; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			if n < 0 || n > 1<<21 {
				continue
			}
			ranks := Ranks(VEB, n, 0)
			checkWrite(t, VEB, n, 0, leaf, true, ranks)
			checkWrite(t, VEB, n, 0, leaf, false, ranks)
		}
	}
}

// TestWriterChunks runs the B-tree layouts with buffers of one record
// and up, so every level moves in many chunks — the production buffer
// of n/8 records only takes more than one chunk for the BST and small B
// — around full, one-past-full and sparse last levels.
func TestWriterChunks(t *testing.T) {
	for _, c := range writeKinds() {
		if c.k == Sorted || c.k == VEB {
			continue
		}
		t.Run(fmt.Sprintf("%v/b=%d", c.k, c.b), func(t *testing.T) {
			t.Parallel()
			sizes := []int{4095, 4096, 4097, 6560, 6561, 6562, 10000}
			for n := 0; n <= 1200; n++ {
				sizes = append(sizes, n)
			}
			for _, n := range sizes {
				ranks := Ranks(c.k, n, c.b)
				for _, leaf := range []int{1, 2, 5} {
					checkWrite(t, c.k, n, c.b, leaf, n%2 == 1, ranks)
				}
			}
		})
	}
}

// TestWriterLargePosOf checks large non-perfect and perfect sizes on
// sampled ranks through PosOf, without building rank tables, and reads
// each back.
func TestWriterLargePosOf(t *testing.T) {
	if testing.Short() {
		t.Skip("large layouts")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1 << 21, 1<<21 - 1, 3 << 19, 6561*729 - 1} {
		keys, sorted := make([]int32, n), make([]int32, n)
		vals, back := make([]uint64, n), make([]uint64, n)
		for _, c := range writeKinds() {
			for i := range keys {
				keys[i], vals[i] = int32(i), uint64(i)<<1
			}
			Write(c.k, keys, vals, c.b)
			for s := 0; s < 2000; s++ {
				r := rng.IntN(n)
				if s < 2 {
					r = s * (n - 1)
				}
				pos := PosOf(c.k, r, n, c.b)
				if int(keys[pos]) != r || vals[pos] != uint64(r)<<1 {
					t.Fatalf("%v n=%d b=%d: pos %d holds %d, want rank %d", c.k, n, c.b, pos, keys[pos], r)
				}
			}
			Read(c.k, sorted, back, keys, vals, c.b)
			for i := range sorted {
				if int(sorted[i]) != i || back[i] != uint64(i)<<1 {
					t.Fatalf("%v n=%d b=%d: Read put %d at %d", c.k, n, c.b, sorted[i], i)
				}
			}
		}
	}
}

// TestWriterLengthMismatch pins the misuses Write and Read refuse.
func TestWriterLengthMismatch(t *testing.T) {
	three := []int{1, 2, 3}
	for name, call := range map[string]func(){
		"Write 3 keys, 2 values":   func() { Write(VEB, three, []int{1, 2}, 8) },
		"Read into 2 keys":         func() { Read[int, int](BTree, make([]int, 2), nil, three, nil, 8) },
		"Read values into none":    func() { Read(VEB, make([]int, 3), nil, three, three, 8) },
		"Read 3 keys and 2 values": func() { Read(Hier, make([]int, 3), make([]int, 2), three, []int{1, 2}, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzLayoutWriteRoundTrip writes 0..n-1 into a fuzzed layout, node
// capacity and vEB table-leaf size, compares with the rank table, and
// reads it back to sorted order.
func FuzzLayoutWriteRoundTrip(f *testing.F) {
	for _, k := range []uint8{0, 1, 2, 3, 4} {
		for _, n := range []uint16{0, 1, 2, 7, 1023, 1024, 1025, 4096, 40000} {
			f.Add(k, n, uint8(8), uint8(0))
			f.Add(k, n, uint8(3), uint8(2))
		}
	}
	leaves := []int{vebLeaf, 1, 3, 17}
	f.Fuzz(func(t *testing.T, kRaw uint8, nRaw uint16, bRaw, leafRaw uint8) {
		k := Kind(int(kRaw) % 5)
		n := int(nRaw)
		b := 1 + int(bRaw)%16
		checkWrite(t, k, n, b, leaves[int(leafRaw)%len(leaves)], bRaw%2 == 0, Ranks(k, n, b))
	})
}
