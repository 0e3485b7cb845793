package search

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"testing"

	"implicitlayout/layout"
)

// benchArr lays sorted out as kind for the micro-benchmarks.
func benchArr[T any](kind layout.Kind, sorted []T) []T {
	if kind == layout.Sorted {
		return sorted
	}
	return layout.Build(kind, sorted, 8)
}

// benchQs returns the query stream for an index of n odd keys.
func benchQs(n int) []uint64 {
	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = uint64(2*(i*2654435761%n) + 1)
	}
	return qs
}

var benchSink int

// benchQueries runs find over qs round-robin; len(qs) is a power of two.
func benchQueries[T any](b *testing.B, find func(q T) int, qs []T) {
	mask := len(qs) - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += find(qs[i&mask])
	}
}

// lazy returns f's result, computing it on the first call only, so a
// row the -bench filter skips never pays for its layout.
func lazy[T any](f func() []T) func() []T {
	var v []T
	return func() []T {
		if v == nil {
			v = f()
		}
		return v
	}
}

// rawKernels names the raw search kernel of each layout that has one
// (hier has only its Index route).
var rawKernels = map[layout.Kind]string{
	layout.Sorted: "binary", layout.BST: "bst", layout.BTree: "btree", layout.VEB: "veb",
}

// rawKernel returns kind's raw search kernel over arr.
func rawKernel[T cmp.Ordered](kind layout.Kind, arr []T) func(q T) int {
	switch kind {
	case layout.Sorted:
		return func(q T) int { return Binary(arr, q) }
	case layout.BST:
		return func(q T) int { return BST(arr, q) }
	case layout.BTree:
		return func(q T) int { return BTree(arr, 8, q) }
	case layout.VEB:
		return func(q T) int { return VEB(arr, q) }
	}
	panic(fmt.Sprintf("no raw kernel for %v", kind))
}

// randomKeys returns n distinct uniform uint64 keys in ascending order
// and 2^18 queries, half of them keys and half fresh uniform values
// (absent but for a 2^-45 chance each), in random order.
func randomKeys(n int) (keys, qs []uint64) {
	r := rand.New(rand.NewPCG(1, 2))
	keys = make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	qs = make([]uint64, 1<<18)
	for i := range qs {
		if i&1 == 0 {
			qs[i] = keys[r.IntN(len(keys))]
		} else {
			qs[i] = r.Uint64()
		}
	}
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return keys, qs
}

// decimal renders each key in base 10: variable-length string keys (up
// to 20 bytes) whose string order differs from the numeric order.
func decimal(xs []uint64) []string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatUint(x, 10)
	}
	return s
}

// benchKinds runs one row per layout over keys and qs: the raw kernel
// where the layout has one, hier through its Index route.
func benchKinds[T cmp.Ordered](b *testing.B, prefix string, sorted func() []T, qs func() []T) {
	for _, kind := range allKindsWithSorted() {
		arr := lazy(func() []T { return benchArr(kind, sorted()) })
		name, ok := rawKernels[kind]
		find := func() func(T) int { return rawKernel(kind, arr()) }
		if !ok {
			name = "index/" + kind.String()
			find = func() func(T) int { return NewIndex(arr(), kind, 8).Find }
		}
		b.Run(fmt.Sprintf("%s/%s", prefix, name), func(b *testing.B) {
			benchQueries(b, find(), qs())
		})
	}
}

// BenchmarkSearch lays each (kind, n) out once, on its first row: a
// layout of 2^24 keys is 128 MiB, and each row runs several b.N probes.
func BenchmarkSearch(b *testing.B) {
	// 3·2^19 leaves the last level half full, so the vEB descent takes
	// its partial-frame arithmetic; the powers of two do not.
	for _, size := range []struct {
		name string
		n    int
	}{{"2^16", 1 << 16}, {"2^20", 1 << 20}, {"3*2^19", 3 << 19}, {"2^24", 1 << 24}} {
		n, qs := size.n, benchQs(size.n)
		sorted := lazy(func() []uint64 { return oddKeys(n) })
		for _, kind := range allKindsWithSorted() {
			arr := lazy(func() []uint64 { return benchArr(kind, sorted()) })
			if name, ok := rawKernels[kind]; ok {
				b.Run(fmt.Sprintf("%s/n=%s", name, size.name), func(b *testing.B) {
					benchQueries(b, rawKernel(kind, arr()), qs)
				})
			}
			// The same queries through Index.Find: the raw kernel plus
			// the layout routing that every store lookup pays.
			b.Run(fmt.Sprintf("index/%v/n=%s", kind, size.name), func(b *testing.B) {
				benchQueries(b, NewIndex(arr(), kind, 8).Find, qs)
			})
		}
	}
	// A DB run's shape: 650K uniform keys (one shard of a 2^21-record
	// run at GOMAXPROCS = 2 after deduplication, about) queried in random
	// order, half absent, so no branch predictor learns the descent. The
	// string rows ask the same of variable-length keys, where a compare
	// is a call, not an instruction.
	const n = 650_000
	rnd := sync.OnceValues(func() ([]uint64, []uint64) { return randomKeys(n) })
	keys := func() []uint64 { k, _ := rnd(); return k }
	qs := func() []uint64 { _, q := rnd(); return q }
	benchKinds(b, "random/n=650K", keys, qs)
	strKeys := lazy(func() []string { k := decimal(keys()); slices.Sort(k); return k })
	strQs := lazy(func() []string { return decimal(qs()) })
	benchKinds(b, "string/n=650K", strKeys, strQs)
}

func BenchmarkPredecessor(b *testing.B) {
	n := 1 << 20
	qs := benchQs(n)
	sorted := lazy(func() []uint64 { return oddKeys(n) })
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		arr := lazy(func() []uint64 { return benchArr(kind, sorted()) })
		b.Run(kind.String(), func(b *testing.B) {
			benchQueries(b, NewIndex(arr(), kind, 8).Predecessor, qs)
		})
	}
}

// BenchmarkCursor measures the in-order Cursor that every Scan, Range
// and DB merge input walks, in ns per key read: a full Scan of 2^20 keys,
// and Ranges of 64 keys from spread start keys (one Seek and 64 Nexts).
func BenchmarkCursor(b *testing.B) {
	const n = 1 << 20
	qs := benchQs(n)
	sorted := lazy(func() []uint64 { return oddKeys(n) })
	for _, kind := range allKindsWithSorted() {
		arr := lazy(func() []uint64 { return benchArr(kind, sorted()) })
		b.Run(fmt.Sprintf("scan/%v/n=2^20", kind), func(b *testing.B) {
			ix := NewIndex(arr(), kind, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Scan(func(pos int, _ uint64) bool { benchSink += pos; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rec")
		})
		b.Run(fmt.Sprintf("range64/%v/n=2^20", kind), func(b *testing.B) {
			ix := NewIndex(arr(), kind, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := qs[i&1023]
				ix.Range(lo, lo+2*63, func(pos int, _ uint64) bool { benchSink += pos; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/rec")
		})
	}
}
