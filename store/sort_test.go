package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/par"
	"implicitlayout/internal/rawfmt"
)

// TestParallelSort compares against the standard sort across sizes
// spanning the serial cutoff, worker counts, and duplicate-heavy inputs.
func TestParallelSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, sortSerialBelow - 1, sortSerialBelow, 1 << 15, 1<<15 + 77} {
		for _, p := range []int{1, 2, 3, 7, 8, 16} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Intn(n/4 + 1)) // plenty of duplicates
			}
			want := slices.Clone(a)
			slices.Sort(want)
			parallelSort(par.New(p), a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d p=%d: parallelSort differs from slices.Sort", n, p)
			}
		}
	}
}

// TestCoRank verifies the split invariant on duplicate-heavy runs: for
// every cut position t, merging the co-ranked prefixes yields exactly the
// first t elements of the full merge.
func TestCoRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := make([]uint64, rng.Intn(200))
		y := make([]uint64, rng.Intn(200))
		for i := range x {
			x[i] = uint64(rng.Intn(20))
		}
		for i := range y {
			y[i] = uint64(rng.Intn(20))
		}
		slices.Sort(x)
		slices.Sort(y)
		full := make([]uint64, len(x)+len(y))
		mergeRuns(full, x, y, cmp.Less)
		for cut := 0; cut <= len(full); cut++ {
			i, j := coRank(cut, x, y, cmp.Less)
			if i+j != cut {
				t.Fatalf("coRank(%d) = (%d, %d), sum != cut", cut, i, j)
			}
			prefix := make([]uint64, cut)
			mergeRuns(prefix, x[:i], y[:j], cmp.Less)
			if !slices.Equal(prefix, full[:cut]) {
				t.Fatalf("coRank(%d) = (%d, %d): prefix %v != %v", cut, i, j, prefix, full[:cut])
			}
		}
	}
}

// TestParallelMerge cross-checks the co-ranked parallel merge against the
// serial kernel across the serial cutoff.
func TestParallelMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{mergeSerialBelow - 1, mergeSerialBelow, 1 << 14} {
		for _, p := range []int{1, 2, 5, 8} {
			x := make([]uint64, n/3)
			y := make([]uint64, n-n/3)
			for i := range x {
				x[i] = uint64(rng.Intn(n / 2))
			}
			for i := range y {
				y[i] = uint64(rng.Intn(n / 2))
			}
			slices.Sort(x)
			slices.Sort(y)
			want := make([]uint64, n)
			mergeRuns(want, x, y, cmp.Less)
			got := make([]uint64, n)
			parallelMerge(par.New(p), got, x, y, cmp.Less)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d p=%d: parallelMerge differs from mergeRuns", n, p)
			}
		}
	}
}

// TestParallelSortNaN: float keys containing NaN sort identically on the
// serial (slices.Sort) and parallel (run-sort + co-ranked merge) paths.
func TestParallelSortNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := sortSerialBelow * 2
	a := make([]float64, n)
	for i := range a {
		if rng.Intn(10) == 0 {
			a[i] = math.NaN()
		} else {
			a[i] = rng.NormFloat64()
		}
	}
	want := slices.Clone(a)
	slices.Sort(want)
	parallelSort(par.New(8), a)
	for i := range a {
		if math.IsNaN(want[i]) != math.IsNaN(a[i]) || (!math.IsNaN(a[i]) && a[i] != want[i]) {
			t.Fatalf("NaN sort diverges from slices.Sort at %d: %v vs %v", i, a[i], want[i])
		}
	}
}

// TestMergeRuns covers the pairwise merge kernel, including empty and
// one-sided runs.
func TestMergeRuns(t *testing.T) {
	cases := []struct{ x, y []uint64 }{
		{nil, nil},
		{[]uint64{1}, nil},
		{nil, []uint64{2}},
		{[]uint64{1, 3, 5}, []uint64{2, 2, 4, 9}},
		{[]uint64{7, 8}, []uint64{1, 2, 3}},
	}
	for _, c := range cases {
		dst := make([]uint64, len(c.x)+len(c.y))
		mergeRuns(dst, c.x, c.y, cmp.Less)
		want := append(slices.Clone(c.x), c.y...)
		slices.Sort(want)
		if !slices.Equal(dst, want) {
			t.Fatalf("mergeRuns(%v, %v) = %v, want %v", c.x, c.y, dst, want)
		}
	}
}

// TestParallelSortStable: equal keys keep their input order across the
// serial cutoff and worker counts — the property the duplicate-key
// policies rely on.
func TestParallelSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type pair struct {
		key uint64
		seq int
	}
	for _, n := range []int{0, 1, 100, sortSerialBelow, 1<<15 + 77} {
		for _, p := range []int{1, 3, 8} {
			a := make([]pair, n)
			for i := range a {
				a[i] = pair{key: uint64(rng.Intn(n/16 + 1)), seq: i} // heavy duplication
			}
			parallelSortStable(par.New(p), a, func(x, y pair) int {
				return cmp.Compare(x.key, y.key)
			})
			for i := 1; i < n; i++ {
				if a[i-1].key > a[i].key {
					t.Fatalf("n=%d p=%d: not sorted at %d", n, p, i)
				}
				if a[i-1].key == a[i].key && a[i-1].seq > a[i].seq {
					t.Fatalf("n=%d p=%d: equal keys reordered at %d", n, p, i)
				}
			}
		}
	}
}

// ID is a named fixed-width key type: the radix engine must find its
// image through the underlying kind.
type ID uint32

// sameKey compares keys bit for bit, so a swapped -0/+0 or a reordered
// NaN payload counts as a difference.
func sameKey[K cmp.Ordered](a, b K) bool {
	switch x := any(a).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	}
	return a == b
}

// stableOracle is the reference stage-1 sort: slices.SortStableFunc by
// cmp.Compare, with each key's input position as its value.
func stableOracle[K cmp.Ordered](keys []K) ([]K, []int) {
	type kv struct {
		k K
		v int
	}
	recs := make([]kv, len(keys))
	for i, k := range keys {
		recs[i] = kv{k, i}
	}
	slices.SortStableFunc(recs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	wk, wv := make([]K, len(keys)), make([]int, len(keys))
	for i, r := range recs {
		wk[i], wv[i] = r.k, r.v
	}
	return wk, wv
}

// checkSortByKey runs sortByKey on keys on 1..maxP workers with input
// positions as values, and keys-only on maxP workers, and holds both to
// the stable oracle bit for bit; src must come back untouched. A leaf
// above zero replaces the radix engine's production leaf size, in
// records, so small inputs reach its MSD step.
func checkSortByKey[K cmp.Ordered](t *testing.T, name string, keys []K, maxP, leaf int) {
	t.Helper()
	sortKV, sortK := sortByKey[K, int], sortByKey[K, struct{}]
	if leaf > 0 {
		name = fmt.Sprintf("%s/leaf=%d", name, leaf)
		sortKV = func(r par.Runner, sk []K, sv []int, dk []K, dv []int) { sortByKeyLeaf(r, sk, sv, dk, dv, leaf) }
		sortK = func(r par.Runner, sk []K, sv []struct{}, dk []K, dv []struct{}) {
			sortByKeyLeaf(r, sk, sv, dk, dv, leaf)
		}
	}
	wantK, wantV := stableOracle(keys)
	src := slices.Clone(keys)
	seq := make([]int, len(keys))
	for i := range seq {
		seq[i] = i
	}
	gotK, gotV, setK := make([]K, len(keys)), make([]int, len(keys)), make([]K, len(keys))
	for p := 1; p <= maxP; p++ {
		sortKV(par.New(p), keys, seq, gotK, gotV)
		copy(setK, wantK)
		if p == maxP {
			clear(setK)
			sortK(par.New(p), keys, nil, setK, nil)
		}
		for i := range keys {
			if !sameKey(gotK[i], wantK[i]) || gotV[i] != wantV[i] {
				t.Fatalf("%s n=%d p=%d: record %d is (%v, %d), want (%v, %d)",
					name, len(keys), p, i, gotK[i], gotV[i], wantK[i], wantV[i])
			}
			if !sameKey(setK[i], wantK[i]) {
				t.Fatalf("%s n=%d p=%d: keys-only key %d is %v, want %v", name, len(keys), p, i, setK[i], wantK[i])
			}
			if !sameKey(keys[i], src[i]) {
				t.Fatalf("%s n=%d p=%d: source key %d was overwritten", name, len(keys), p, i)
			}
		}
	}
}

// sortKeys draws n keys as conv of a bit pattern, each with probability
// 1/2 repeating an earlier key. dist picks the patterns: "random"
// (full width), "small" (high digits constant, so the radix skips them),
// "special" (the kind's special values), "alphabet" (every byte one of
// 0x00, 0x7f, 0x80, 0xff: a few fat buckets per digit, so the MSD step
// recurses level after level and leaves buckets with odd and even digit
// counts) and "onebyte" (keys sharing every byte but one).
func sortKeys[K cmp.Ordered](rng *rand.Rand, n int, dist string, conv func(uint64) K, specials ...K) []K {
	keys := make([]K, n)
	base, at := rng.Uint64(), 8*uint(rng.Intn(8))
	for i := range keys {
		switch {
		case i > 0 && rng.Intn(2) == 0:
			keys[i] = keys[rng.Intn(i)]
		case dist == "random":
			keys[i] = conv(rng.Uint64())
		case dist == "small":
			keys[i] = conv(uint64(rng.Intn(300)))
		case dist == "special":
			keys[i] = specials[rng.Intn(len(specials))]
		case dist == "alphabet":
			var x uint64
			for range 8 {
				x = x<<8 | uint64([]byte{0x00, 0x7f, 0x80, 0xff}[rng.Intn(4)])
			}
			keys[i] = conv(x)
		default: // onebyte
			keys[i] = conv(base&^(0xff<<at) | uint64(rng.Intn(256))<<at)
		}
	}
	return keys
}

// sortByKeyCase checks one key kind: at the production leaf, at every
// size around the parallel cutoff; at leaves of a few records, around
// the leaf (n = leaf-1, leaf, leaf+1), through multi-level MSD recursion
// and, past the parallel cutoff, with the MSD steps on every worker.
func sortByKeyCase[K cmp.Ordered](t *testing.T, rng *rand.Rand, name string, conv func(uint64) K, specials ...K) {
	dists := []string{"random", "small", "special", "alphabet", "onebyte"}
	for _, n := range []int{0, 1, 2, sortSerialBelow - 1, sortSerialBelow, sortSerialBelow + 1, 1 << 16} {
		for _, dist := range dists {
			if n == 1<<16 && dist != "random" {
				continue // the cutoffs already cover these shapes; keep -race affordable
			}
			checkSortByKey(t, name+"/"+dist, sortKeys(rng, n, dist, conv, specials...), 4, 0)
		}
	}
	for _, leaf := range []int{3, 4} {
		for _, n := range []int{leaf - 1, leaf, leaf + 1, 40, 600} {
			for _, dist := range dists {
				checkSortByKey(t, name+"/"+dist, sortKeys(rng, n, dist, conv, specials...), 4, leaf)
			}
		}
	}
	checkSortByKey(t, name+"/alphabet", sortKeys(rng, 2*sortSerialBelow, "alphabet", conv, specials...), 3, 64)
}

// TestSortByKeyMatchesStable: sortByKey — radix for every fixed-width
// kind, merge for strings — equals the stable comparison sort bit for
// bit, NaN payloads and signed zeros included, across the parallel
// cutoffs, the radix leaf size and worker counts.
func TestSortByKeyMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sortByKeyCase(t, rng, "int8", func(x uint64) int8 { return int8(x) }, math.MinInt8, -1, 0, 1, math.MaxInt8)
	sortByKeyCase(t, rng, "int16", func(x uint64) int16 { return int16(x) }, math.MinInt16, -1, 0, 1, math.MaxInt16)
	sortByKeyCase(t, rng, "int32", func(x uint64) int32 { return int32(x) }, math.MinInt32, -1, 0, 1, math.MaxInt32)
	sortByKeyCase(t, rng, "int64", func(x uint64) int64 { return int64(x) }, math.MinInt64, -1, 0, 1, math.MaxInt64)
	sortByKeyCase(t, rng, "int", func(x uint64) int { return int(x) }, math.MinInt, -1, 0, 1, math.MaxInt)
	sortByKeyCase(t, rng, "uint8", func(x uint64) uint8 { return uint8(x) }, 0, 1, 0x7f, 0x80, math.MaxUint8)
	sortByKeyCase(t, rng, "uint16", func(x uint64) uint16 { return uint16(x) }, 0, 1, 0x8000, math.MaxUint16)
	sortByKeyCase(t, rng, "uint32", func(x uint64) uint32 { return uint32(x) }, 0, 1, 1<<31, math.MaxUint32)
	sortByKeyCase(t, rng, "uint64", func(x uint64) uint64 { return x }, 0, 1, 1<<63, math.MaxUint64)
	sortByKeyCase(t, rng, "uint", func(x uint64) uint { return uint(x) }, 0, 1, math.MaxUint)
	sortByKeyCase(t, rng, "uintptr", func(x uint64) uintptr { return uintptr(x) }, 0, 1, ^uintptr(0))
	sortByKeyCase(t, rng, "ID", func(x uint64) ID { return ID(x) }, 0, 1, 1<<31, math.MaxUint32)
	sortByKeyCase(t, rng, "float64", math.Float64frombits,
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		math.Float64frombits(0xffffffffffffffff), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, -1, 1)
	sortByKeyCase(t, rng, "float32", func(x uint64) float32 { return math.Float32frombits(uint32(x)) },
		float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, -1, 1)
	sortByKeyCase(t, rng, "string", func(x uint64) string { return fmt.Sprint(x) }, "", "a", "aa", "b", "\xff")
}

// TestSortByKeyBucketEdges: a radix bucket boundary falls between keys
// that the image makes equal or orders across raw sign bits — -0 and
// +0, NaNs of either sign and any payload, -1 and 1 — and between
// duplicates; the leaf of two records makes every bucket of three or more
// records an MSD bucket of its own.
func TestSortByKeyBucketEdges(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	keys := []float64{1, negZero, nan, 0, -1, -nan, negZero, 1, 0, math.Float64frombits(0xfff8000000000123),
		-1, nan, 0, negZero, 2, -2, math.Inf(-1), math.Inf(1), nan, 0}
	for _, leaf := range []int{1, 2, 3, len(keys) - 1, len(keys), len(keys) + 1} {
		checkSortByKey(t, "float64", keys, 3, leaf)
		f32 := make([]float32, len(keys))
		for i, k := range keys {
			f32[i] = float32(k)
		}
		checkSortByKey(t, "float32", f32, 3, leaf)
	}
}

// TestSortByKeyTiny: every key sequence of up to four records over
// float64 keys that tie, order across the sign and NaN, at the
// production leaf.
func TestSortByKeyTiny(t *testing.T) {
	alphabet := []float64{1, math.Copysign(0, -1), 0, math.NaN(), -1}
	var keys []float64
	var walk func(n int)
	walk = func(n int) {
		checkSortByKey(t, "float64", keys, 2, 0)
		if n == 4 {
			return
		}
		for _, k := range alphabet {
			keys = append(keys, k)
			walk(n + 1)
			keys = keys[:n]
		}
	}
	walk(0)
	for n := range 5 {
		checkSortByKey(t, "uint64", sortKeys(rand.New(rand.NewSource(int64(n))), n, "random", func(x uint64) uint64 { return x }), 2, 0)
	}
}

// fallbackKeys is a key set whose top five bytes are one value c of 16
// and whose low two bytes take 2 and 8 values: the digits' distinct
// counts multiply to far more than the 16 groups the top five really
// make, so a bucket of them keeps those five, overruns the insertion
// budget and finishes each group with an MSD step on byte 1 and another
// on byte 0. The 256 keys, big-endian, are also FuzzSortByKey's seed for
// that fallback; c is small enough that they read as positive floats.
func fallbackKeys() []byte {
	data := make([]byte, 0, 256*8)
	for i := range 256 {
		c, j, k := byte(0x30+i*7%16), byte(i/16%2), byte(i/32)
		data = append(data, c, c, c, c, c, 0, j, k)
	}
	return data
}

// bucketCase runs sortBucket on keys, with input positions as values and
// keys-only, from a separate source and in place, holds every result to
// the stable oracle bit for bit and returns the finish paths taken.
func bucketCase[K cmp.Ordered](t *testing.T, name string, keys []K) int {
	t.Helper()
	kind, _ := rawfmt.Kind(reflect.TypeFor[K]())
	o := orderOf[uint64](kind)
	bitsOf := func(ks []K) []uint64 {
		u, _ := mmapio.View[uint64](mmapio.Bytes(ks))
		return u
	}
	src := bitsOf(keys)
	differ := differing(par.Serial(0), o, src)
	wantK, wantV := stableOracle(keys)
	paths := -1
	for _, inPlace := range []bool{false, true} {
		for _, vals := range []bool{true, false} {
			gotK := make([]K, len(keys))
			var gotV []int
			in := block[uint64, int]{k: src}
			if vals {
				gotV = make([]int, len(keys))
				in.v = make([]int, len(keys))
				for i := range in.v {
					in.v[i] = i
				}
			}
			out := block[uint64, int]{bitsOf(gotK), gotV}
			if inPlace {
				copy(out.k, in.k)
				copy(out.v, in.v)
				in = out
			}
			var sc bucketScratch[uint64, int]
			p := sortBucket(o, in, out, differ, &sc)
			if paths >= 0 && p != paths {
				t.Fatalf("%s: paths %b, then %b on the same keys", name, paths, p)
			}
			paths = p
			for i := range keys {
				if !sameKey(gotK[i], wantK[i]) || vals && gotV[i] != wantV[i] {
					t.Fatalf("%s in-place=%v values=%v: record %d is %v, want (%v, %d)",
						name, inPlace, vals, i, gotK[i], wantK[i], wantV[i])
				}
			}
		}
	}
	return paths
}

// TestSortBucketPaths reaches every way sortBucket finishes a bucket —
// outright insertion, every differing digit kept, one insertion pass,
// the insertion budget overrun with shared-digit runs finished by an MSD
// step and by its recursion — and holds each to the stable oracle.
// Keys repeat, so the fallback must keep equal keys in input order.
func TestSortBucketPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	draw := func(n int, key func() uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = key()
			if i > 0 && rng.Intn(4) == 0 {
				keys[i] = keys[rng.Intn(i)]
			}
		}
		return keys
	}
	// y<<48 | y<<40 | rand12, its two equal bytes counted exactly: 4096
	// groups of 16K records are too few for fewer than all four digits.
	correlated := func() uint64 { y := rng.Uint64() & 0xff; return y<<48 | y<<40 | rng.Uint64()&0xfff }
	// y in three bytes, counted as 256 x 256 groups but making 256: runs
	// of 16 fail the budget and each is finished by insertion.
	tripled := func() uint64 { y := rng.Uint64() & 0xff; return y*(1<<48|1<<40|1<<32) | rng.Uint64()&0xff }
	// The same with 128 values over 16K records: runs of 128 take an MSD
	// step on byte 1 (two values), their halves another on byte 0.
	nested := func() uint64 {
		y := rng.Uint64() & 0x7f
		return y*(1<<48|1<<40|1<<32) | rng.Uint64()&0x1ff
	}
	fuzzSeed := func() []float64 {
		data := fallbackKeys()
		keys := make([]float64, 3*sortSerialBelow-1)
		for i := range keys {
			j := i % (len(data) / 8) * 8
			keys[i] = math.Float64frombits(binary.BigEndian.Uint64(data[j : j+8]))
		}
		return keys
	}
	for _, c := range []struct {
		name  string
		paths int
		run   func() int
	}{
		{"short", finishInsertion, func() int { return bucketCase(t, "short", draw(insertionMax, rng.Uint64)) }},
		{"uniform", finishSettled, func() int { return bucketCase(t, "uniform", draw(1<<14, rng.Uint64)) }},
		{"uniform-small", finishSettled, func() int { return bucketCase(t, "uniform-small", draw(100, rng.Uint64)) }},
		{"correlated", finishAllDigits, func() int { return bucketCase(t, "correlated", draw(1<<14, correlated)) }},
		{"tripled", finishBudget, func() int { return bucketCase(t, "tripled", draw(1<<12, tripled)) }},
		{"nested", finishBudget | finishRunMSD | finishRunNested, func() int { return bucketCase(t, "nested", draw(1<<14, nested)) }},
		{"fuzz seed", finishBudget | finishRunMSD | finishRunNested, func() int { return bucketCase(t, "fuzz seed", fuzzSeed()) }},
	} {
		if got := c.run(); got&c.paths != c.paths {
			t.Errorf("%s: finish paths %06b, want %06b among them", c.name, got, c.paths)
		}
	}
}

// TestSortByKeySmallAllocs pins the allocations of a sort of at most 64
// unsorted pairs: DB.Range sorts the active memtable's interval on
// every call. There are none: a bucket this small is finished by
// insertion, or by one pass on its top digit straight into dst and an
// insertion pass, so it needs no ping-pong buffer, and the histograms
// live on the stack.
func TestSortByKeySmallAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 8, 16, 33, 64} {
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = rng.Uint64(), rng.Uint64()
		}
		keys[0], keys[1] = max(keys[0], keys[1]), min(keys[0], keys[1]) // unsorted
		dk, dv := make([]uint64, n), make([]uint64, n)
		if a := testing.AllocsPerRun(20, func() { sortByKey(par.New(2), keys, vals, dk, dv) }); a > 0 {
			t.Errorf("n=%d: sortByKey allocates %v times per call, want none", n, a)
		}
	}
}

// FuzzSortByKey holds sortByKey to the stable oracle on fuzzed key bytes,
// cycled out to n keys (so large n is duplicate-heavy) and sorted on
// up to p workers, read as float64 (NaN payloads), float32, int16 and
// string keys — at the production leaf size and at a leaf of 1 + leaf%32
// records, so the MSD step and its recursion run at every fuzzed n.
func FuzzSortByKey(f *testing.F) {
	f.Add(uint16(10), uint8(1), uint8(2), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(3*sortSerialBelow), uint8(3), uint8(7), []byte{0xff, 0xf8, 1, 2, 3, 4, 5, 6, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 0x80, 0})
	f.Add(uint16(300), uint8(2), uint8(3), []byte{0, 0x7f, 0x80, 0xff, 0, 0, 0x80, 0x80, 0xff, 0x7f, 0, 0x80, 0, 0xff, 0xff})
	f.Add(uint16(3*sortSerialBelow-1), uint8(1), uint8(0), fallbackKeys())
	f.Fuzz(func(t *testing.T, n uint16, p, leaf uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		n %= 3 * sortSerialBelow
		at := func(i, w int) []byte { // the i-th w-byte key, cycling through data
			b := make([]byte, w)
			for j := range b {
				b[j] = data[(i*w+j)%len(data)]
			}
			return b
		}
		f64 := make([]float64, n)
		f32 := make([]float32, n)
		i16 := make([]int16, n)
		str := make([]string, n)
		for i := 0; i < int(n); i++ {
			f64[i] = math.Float64frombits(binary.BigEndian.Uint64(at(i, 8)))
			f32[i] = math.Float32frombits(binary.BigEndian.Uint32(at(i, 4)))
			i16[i] = int16(binary.BigEndian.Uint16(at(i, 2)))
			str[i] = string(at(i, 1+i%3))
		}
		maxP := 1 + int(p%4)
		for _, lf := range []int{0, 1 + int(leaf%32)} {
			checkSortByKey(t, "float64", f64, maxP, lf)
			checkSortByKey(t, "float32", f32, maxP, lf)
			checkSortByKey(t, "int16", i16, maxP, lf)
			checkSortByKey(t, "string", str, maxP, lf)
		}
	})
}

// BenchmarkSortByKey times stage 1 of Build on uniform random keys with
// uint64 values: sortByKey (radix for fixed-width keys) against the
// merge engine, which strings keep, up to 2^20 records; then sortByKey
// alone at the build workload's 2^22 records on key distributions that
// steer the bucket finish differently, each drawn from one random word x
// per key:
//
//   - uniform: x;
//   - skewed: x>>7, top byte 0 or 1, so both top-level buckets are far
//     over the leaf and take a second MSD level;
//   - clustered: r8<<56 | r1<<48 | r1'<<40 | rand40, two few-valued high
//     bytes (r1, r1' independent bits);
//   - correlated12 and correlated24: r8<<56 | y<<48 | y<<40 | rand12 (or
//     rand24), two equal high bytes, so the digits' own distinct counts
//     overstate how far they split a bucket;
//   - dups: 2^16 distinct keys, each repeated ~64 times;
//   - narrow: 1<<50 + rand40, a 40-bit range;
//
// and uniform keys at 2^15 records, a memtable's sort under the leaf.
//
//	go test -run '^$' -bench SortByKey ./store
func BenchmarkSortByKey(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		benchSortByKey(b, "uint64", n, func(x uint64) uint64 { return x }, true)
		benchSortByKey(b, "int32", n, func(x uint64) int32 { return int32(x) }, true)
		benchSortByKey(b, "float64", n, func(x uint64) float64 { return math.Float64frombits(x) }, true)
		benchSortByKey(b, "string", n, func(x uint64) string { return fmt.Sprint(x) }, true)
	}
	for _, d := range []struct {
		name string
		conv func(uint64) uint64
	}{
		{"uint64", func(x uint64) uint64 { return x }},
		{"skewed", func(x uint64) uint64 { return x >> 7 }},
		{"clustered", func(x uint64) uint64 { return x>>56<<56 | x>>47&1<<48 | x>>46&1<<40 | x&(1<<40-1) }},
		{"correlated12", func(x uint64) uint64 { return x>>56<<56 | x>>48&0xff*(1<<48|1<<40) | x&(1<<12-1) }},
		{"correlated24", func(x uint64) uint64 { return x>>56<<56 | x>>48&0xff*(1<<48|1<<40) | x&(1<<24-1) }},
		{"dups", func(x uint64) uint64 { return x & (1<<16 - 1) * 0x9e3779b97f4a7c15 }},
		{"narrow", func(x uint64) uint64 { return 1<<50 + x&(1<<40-1) }},
		// Bytes 5-3 are one hash of one random byte, over 24 random low
		// bits: the product of their distinct counts overestimates the
		// groups, the shape where sortBucket trails the plain LSD pass.
		{"dependent3", func(x uint64) uint64 {
			return x>>56<<56 | (x>>48&0xff+1)*0x9e3779b97f4a7c15>>40<<24 | x&(1<<24-1)
		}},
	} {
		benchSortByKey(b, d.name, 1<<22, d.conv, false)
	}
	benchSortByKey(b, "uint64", 1<<15, func(x uint64) uint64 { return x }, false)
}

func benchSortByKey[K cmp.Ordered](b *testing.B, name string, n int, conv func(uint64) K, withMerge bool) {
	var keys, dstK []K
	var vals, dstV []uint64
	input := func() { // on first use, so filtered-out cases cost nothing
		if keys != nil {
			return
		}
		rng := rand.New(rand.NewSource(1))
		keys, vals = make([]K, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = conv(rng.Uint64()), rng.Uint64()
		}
		dstK, dstV = make([]K, n), make([]uint64, n)
	}
	r := par.New(0)
	engines := []struct {
		name string
		sort func(par.Runner, []K, []uint64, []K, []uint64)
	}{{"sortByKey", sortByKey[K, uint64]}, {"merge", mergeSortByKey[K, uint64]}}
	if _, fixed := rawfmt.Kind(reflect.TypeFor[K]()); !fixed {
		engines = engines[1:] // sortByKey is the merge engine
	} else if !withMerge {
		engines = engines[:1]
	}
	for _, e := range engines {
		b.Run(fmt.Sprintf("%s/n=%d/%s", name, n, e.name), func(b *testing.B) {
			input()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.sort(r, keys, vals, dstK, dstV)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}

// dedupeModel is the map-model oracle for Build's duplicate policies: it
// replays the input in order into a map keyed by ==, so -0 and +0 are one
// key and every NaN is its own, and returns the records Export must
// yield — NaNs first in input order, then keys ascending, the values
// picked by pol (vals are input positions). ok is false when Reject must
// fail.
func dedupeModel[K cmp.Ordered](keys []K, pol DuplicatePolicy) (wantK []K, wantV []int, ok bool) {
	groups := map[K][]int{}
	var distinct []K
	for i, k := range keys {
		if k != k { // NaN: never equal to anything, so always its own record
			wantK, wantV = append(wantK, k), append(wantV, i)
			continue
		}
		if _, seen := groups[k]; !seen {
			distinct = append(distinct, k)
		}
		groups[k] = append(groups[k], i)
	}
	slices.SortFunc(distinct, cmp.Compare[K])
	for _, k := range distinct {
		g := groups[k]
		switch pol {
		case KeepFirst:
			g = g[:1]
		case KeepLast:
			g = g[len(g)-1:]
		case Reject:
			if len(g) > 1 {
				return nil, nil, false
			}
		}
		for _, i := range g {
			wantK, wantV = append(wantK, keys[i]), append(wantV, i)
		}
	}
	return wantK, wantV, true
}

// checkDedupe builds keys under every duplicate policy on 1, 2 and 3
// workers and holds Export to dedupeModel, and Reject's error to the
// first key of the stable sort equal to its predecessor; it also builds
// the stably pre-sorted records, which take Build's no-sort path, and
// requires the identical store bit for bit.
func checkDedupe[K cmp.Ordered](t *testing.T, name string, keys []K) {
	t.Helper()
	eq := func(a, b K) bool { return a == b || (a != a && b != b) }
	seq := make([]int, len(keys))
	for i := range seq {
		seq[i] = i
	}
	idx := slices.Clone(seq)
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	sortedK, sortedV := make([]K, len(keys)), make([]int, len(keys))
	for j, i := range idx {
		sortedK[j], sortedV[j] = keys[i], i
	}
	var rejectErr string
	for i := 1; i < len(sortedK) && rejectErr == ""; i++ {
		if sortedK[i] == sortedK[i-1] {
			rejectErr = fmt.Sprintf("store: duplicate key %v", sortedK[i])
		}
	}
	for _, pol := range []DuplicatePolicy{KeepFirst, KeepLast, KeepAll, Reject} {
		wantK, wantV, wantOK := dedupeModel(keys, pol)
		for _, p := range []int{1, 2, 3} {
			opts := []Option{WithDuplicates(pol), WithShards(3), WithWorkers(p)}
			st, err := Build(keys, seq, opts...)
			pre, preErr := Build(sortedK, sortedV, opts...)
			if (err == nil) != wantOK || (preErr == nil) != wantOK {
				t.Fatalf("%s %v p=%d: Build errors %v / %v (sorted input), model ok=%v", name, pol, p, err, preErr, wantOK)
			}
			if !wantOK {
				if err.Error() != rejectErr || preErr.Error() != rejectErr {
					t.Fatalf("%s p=%d: Reject fails with %q / %q (sorted input), want %q", name, p, err, preErr, rejectErr)
				}
				continue
			}
			gotK, gotV := st.Export()
			if len(gotK) != len(wantK) {
				t.Fatalf("%s %v p=%d: Export has %d records, model %d", name, pol, p, len(gotK), len(wantK))
			}
			for i := range gotK {
				if !eq(gotK[i], wantK[i]) || gotV[i] != wantV[i] {
					t.Fatalf("%s %v p=%d: record %d is (%v, %d), model (%v, %d)",
						name, pol, p, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
			preK, preV := pre.Export()
			if !slices.EqualFunc(preK, gotK, sameKey[K]) || !slices.Equal(preV, gotV) {
				t.Fatalf("%s %v p=%d: Build of the sorted input exports differently", name, pol, p)
			}
		}
	}
}

// TestBuildDedupeAcrossKeyImage: the radix sort orders floats and signed
// ints through an unsigned image of the key; duplicate resolution on top
// of it must still follow input order and ==, on float keys mixing -0,
// +0 and NaNs and on int64 keys around the sign boundary, and a
// pre-sorted input (no sort at all) must build the identical store.
func TestBuildDedupeAcrossKeyImage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	negZero := math.Copysign(0, -1)
	floats := []float64{negZero, 0, math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Inf(-1), math.Inf(1), -1, 1, -0.5, 0.5}
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	draw := func(n int, pool []float64, ipool []int64) ([]float64, []int64) {
		fk, ik := make([]float64, n), make([]int64, n)
		for i := range fk {
			fk[i], ik[i] = pool[rng.Intn(len(pool))], ipool[rng.Intn(len(ipool))]
		}
		return fk, ik
	}
	// Above the parallel sort cutoff and small, duplicate-heavy.
	for _, n := range []int{40, 3 << 13} {
		fk, ik := draw(n, floats, ints)
		checkDedupe(t, fmt.Sprint("float64/n=", n), fk)
		checkDedupe(t, fmt.Sprint("int64/n=", n), ik)
	}
	// Duplicate-free under ==, so Reject must build: NaNs never match,
	// and only one zero is present.
	fk := []float64{1, math.NaN(), math.Inf(-1), negZero, math.NaN(), -1, math.Inf(1)}
	ik := slices.Clone(ints)
	rng.Shuffle(len(ik), func(i, j int) { ik[i], ik[j] = ik[j], ik[i] })
	checkDedupe(t, "float64/unique", fk)
	checkDedupe(t, "int64/unique", ik)
}

// TestBuildDedupeScan places the first equal neighbours of the sorted
// keys where the parallel scan for them splits or ends — at index 1, on
// a block boundary of 2 and of 3 workers, at the last index only, or
// nowhere — above the size where the scan goes parallel; a later
// duplicate follows the first wherever there is room.
func TestBuildDedupeScan(t *testing.T) {
	const n = 6 * 2048
	rng := rand.New(rand.NewSource(23))
	for _, first := range []int{1, n / 3, n / 2, 2 * n / 3, n - 1, 0} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(2*i) - n
		}
		if first > 0 {
			sorted[first] = sorted[first-1]
			if first+7 < n {
				sorted[first+7] = sorted[first+6]
			}
		}
		keys := slices.Clone(sorted)
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		checkDedupe(t, fmt.Sprint("int64/first=", first), keys)
		if got := firstEqual(par.New(3), sorted); got != cmp.Or(first, n) {
			t.Fatalf("first=%d: firstEqual on 3 workers = %d", first, got)
		}
	}
}
