package store

import (
	"cmp"
	"math"
	"reflect"
	"slices"

	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/par"
	"implicitlayout/internal/rawfmt"
)

// sortSerialBelow is the input size under which forking sort runs is not
// worth the goroutine overhead.
const sortSerialBelow = 1 << 13

// sortByKey is the store's one key sort (stage 1 of Build, and the
// memtables' ordered views). It writes the records (srcK[i], srcV[i]) to
// dstK/dstV in cmp.Compare order — NaNs first, -0 equal to +0 — stably,
// which is what gives the duplicate policies' first/last occurrence its
// meaning. srcV and dstV are nil for a keys-only sort; src is only read
// and must not overlap dst. Sorted input (every flush and compaction) is
// copied, since a stable sort of it is the identity; otherwise integer
// and float keys, named types included, take the LSD radix engine and
// strings the merge engine.
func sortByKey[K cmp.Ordered, V any](r par.Runner, srcK []K, srcV []V, dstK []K, dstV []V) {
	if slices.IsSorted(srcK) {
		copy(dstK, srcK)
		copy(dstV, srcV)
		return
	}
	kt := reflect.TypeFor[K]()
	kind, ok := rawfmt.Kind(kt)
	if !ok {
		mergeSortByKey(r, srcK, srcV, dstK, dstV)
		return
	}
	switch kt.Size() {
	case 1:
		radixAs[uint8](r, kind, srcK, srcV, dstK, dstV)
	case 2:
		radixAs[uint16](r, kind, srcK, srcV, dstK, dstV)
	case 4:
		radixAs[uint32](r, kind, srcK, srcV, dstK, dstV)
	default:
		radixAs[uint64](r, kind, srcK, srcV, dstK, dstV)
	}
}

// mergeSortByKey is the string engine: keys-only input takes the
// unstable key sort (equal strings are indistinguishable), records zip
// through a pair array so the stable sort moves each value with its key.
func mergeSortByKey[K cmp.Ordered, V any](r par.Runner, srcK []K, srcV []V, dstK []K, dstV []V) {
	if srcV == nil {
		copy(dstK, srcK)
		parallelSort(r, dstK)
		return
	}
	recs := make([]rec[K, V], len(srcK))
	for i := range recs {
		recs[i] = rec[K, V]{key: srcK[i], val: srcV[i]}
	}
	parallelSortStable(r, recs, func(a, b rec[K, V]) int { return cmp.Compare(a.key, b.key) })
	for i := range recs {
		dstK[i], dstV[i] = recs[i].key, recs[i].val
	}
}

// rec pairs a key with its value for the merge engine's stable sort.
type rec[K, V any] struct {
	key K
	val V
}

// unsigned is the bit-pattern type the radix engine moves a key as.
type unsigned interface {
	uint8 | uint16 | uint32 | uint64
}

// radixAs radix-sorts fixed-width keys of kind as their U bit patterns,
// viewed in place. U has K's width, so the checked views cannot fail.
func radixAs[U unsigned, K, V any](r par.Runner, kind reflect.Kind, srcK []K, srcV []V, dstK []K, dstV []V) {
	src, _ := mmapio.View[U](mmapio.Bytes(srcK))
	dst, _ := mmapio.View[U](mmapio.Bytes(dstK))
	radixSort(r, orderOf[U](kind), src, srcV, dst, dstV)
}

// keyOrder maps a key's bits to an unsigned image whose order is the
// key's cmp.Compare order. Unsigned kinds are their own image; signed
// kinds flip the sign bit; floats (inf != 0) reverse the negatives, fold
// -0 onto +0 and send every NaN to 0, below -Inf's image.
type keyOrder[U unsigned] struct {
	sign U // the top bit; zero for unsigned kinds
	inf  U // +Inf's bits for float kinds; zero otherwise
}

func orderOf[U unsigned](kind reflect.Kind) (o keyOrder[U]) {
	switch kind {
	case reflect.Float32:
		o.inf = U(math.Float32bits(float32(math.Inf(1))))
	case reflect.Float64:
		o.inf = U(math.Float64bits(math.Inf(1)))
	}
	if o.inf != 0 || reflect.Int <= kind && kind <= reflect.Int64 {
		o.sign = ^U(0)>>1 + 1
	}
	return o
}

func (o keyOrder[U]) image(u U) U {
	if o.inf == 0 {
		return u ^ o.sign
	}
	abs := u &^ o.sign
	if abs > o.inf { // NaN, any sign or payload
		return 0
	}
	if abs == 0 { // -0 and +0
		return o.sign
	}
	x := u | o.sign // positive
	if abs != u {   // negative
		x = ^u
	}
	return x
}

// radixSort is the fixed-width engine: a stable parallel LSD radix sort
// of the key bits src, values srcV riding along, into dst — one 8-bit
// digit of the keyOrder image per pass, skipping digits all keys agree
// on. Each worker's histogram of its contiguous block becomes bucket
// offsets after every earlier block's, so the scatter is stable. The
// first pass reads src and the last writes dst, through one scratch
// buffer in between.
func radixSort[U unsigned, V any](r par.Runner, o keyOrder[U], src []U, srcV []V, dst []U, dstV []V) {
	n := len(src)
	p := r.P()
	if n < sortSerialBelow {
		p = 1
	}
	and, or := ^U(0), U(0) // differ = and^or: the image bits keys differ in
	for _, u := range src {
		x := o.image(u)
		and, or = and&x, or|x
	}
	var shifts []int
	for s := 0; (and^or)>>s != 0; s += 8 {
		if uint8((and^or)>>s) != 0 {
			shifts = append(shifts, s)
		}
	}
	if len(shifts) == 0 {
		shifts = []int{0} // all keys equal: one pass is a stable copy
	}
	var scratch []U
	var scratchV []V
	if len(shifts) > 1 {
		scratch, scratchV = make([]U, n), make([]V, len(srcV))
	}
	hist := make([][256]int, p)
	in, inV := src, srcV
	for i, shift := range shifts {
		out, outV := dst, dstV
		if (len(shifts)-i)%2 == 0 {
			out, outV = scratch, scratchV
		}
		r.Tasks(p, func(w int, _ par.Runner) {
			lo, hi := w*n/p, (w+1)*n/p
			h := &hist[w]
			*h = [256]int{}
			for _, u := range in[lo:hi] {
				h[uint8(o.image(u)>>shift)]++
			}
		})
		off := 0
		for b := range 256 {
			for w := range p {
				hist[w][b], off = off, off+hist[w][b]
			}
		}
		r.Tasks(p, func(w int, _ par.Runner) {
			lo, hi := w*n/p, (w+1)*n/p
			h := &hist[w]
			for j := lo; j < hi; j++ {
				u := in[j]
				b := uint8(o.image(u) >> shift)
				k := h[b]
				out[k] = u
				if len(inV) > 0 {
					outV[k] = inV[j]
				}
				h[b] = k + 1
			}
		})
		in, inV = out, outV
	}
}

// parallelSort sorts a ascending using the runner's workers. It is the
// key-only fast path: serial leaves use the specialized slices.Sort.
func parallelSort[T cmp.Ordered](r par.Runner, a []T) {
	parallelSortRuns(r, a, slices.Sort[[]T, T], cmp.Less[T])
}

// parallelSortStable sorts a ascending by the comparison cmpf, stably:
// elements that compare equal keep their input order. The build pipeline
// uses it for key–value records, where stability is what makes the
// duplicate-key policies (first/last occurrence wins) well defined.
func parallelSortStable[E any](r par.Runner, a []E, cmpf func(E, E) int) {
	parallelSortRuns(r, a,
		func(run []E) { slices.SortStableFunc(run, cmpf) },
		func(x, y E) bool { return cmpf(x, y) < 0 })
}

// parallelSortRuns is the shared engine: each worker sorts one contiguous
// run with sortRun, then runs are merged pairwise in parallel rounds under
// the order less. It uses one n-element scratch buffer; the build pipeline
// is the only caller, so the transient allocation never touches the query
// path. The merge keeps the left run on ties, so the whole sort is stable
// whenever sortRun is.
func parallelSortRuns[E any](r par.Runner, a []E, sortRun func([]E), less func(E, E) bool) {
	n := len(a)
	p := r.P()
	if p > n {
		p = n
	}
	if p <= 1 || n < sortSerialBelow {
		sortRun(a)
		return
	}

	// Stage 1: p sorted runs, one per worker.
	bounds := make([]int, p+1)
	for i := range bounds {
		bounds[i] = i * n / p
	}
	r.Tasks(p, func(i int, _ par.Runner) {
		sortRun(a[bounds[i]:bounds[i+1]])
	})

	// Stage 2: merge runs pairwise until one remains, ping-ponging
	// between a and the scratch buffer. Each merge task splits its pair
	// across the sub-runner it receives (co-ranking), so the rounds keep
	// all workers busy even as the run count halves — without this the
	// final whole-array merge would be a serial O(n) tail.
	src, dst := a, make([]E, n)
	rounds := 0
	for len(bounds)-1 > 1 {
		runs := len(bounds) - 1
		pairs := runs / 2
		odd := runs % 2
		r.Tasks(pairs+odd, func(t int, sub par.Runner) {
			if t == pairs { // unpaired trailing run: carried over verbatim
				copy(dst[bounds[2*t]:bounds[2*t+1]], src[bounds[2*t]:bounds[2*t+1]])
				return
			}
			lo, mid, hi := bounds[2*t], bounds[2*t+1], bounds[2*t+2]
			parallelMerge(sub, dst[lo:hi], src[lo:mid], src[mid:hi], less)
		})
		next := bounds[:0:0]
		for i := 0; i < len(bounds); i += 2 {
			next = append(next, bounds[i])
		}
		if next[len(next)-1] != n {
			next = append(next, n)
		}
		bounds = next
		src, dst = dst, src
		rounds++
	}
	if rounds%2 == 1 {
		copy(a, src)
	}
}

// mergeSerialBelow is the merge output size under which splitting one
// merge across workers is not worth the co-ranking overhead.
const mergeSerialBelow = 1 << 12

// parallelMerge merges the sorted runs x and y into dst using the
// runner's workers: the output is cut into P near-equal chunks, co-rank
// binary searches find the matching split points in x and y, and each
// worker merges its chunk independently.
func parallelMerge[E any](r par.Runner, dst, x, y []E, less func(E, E) bool) {
	k := r.P()
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 1 || len(dst) < mergeSerialBelow {
		mergeRuns(dst, x, y, less)
		return
	}
	type cut struct{ i, j int }
	cuts := make([]cut, k+1)
	cuts[k] = cut{len(x), len(y)}
	for w := 1; w < k; w++ {
		i, j := coRank(w*len(dst)/k, x, y, less)
		cuts[w] = cut{i, j}
	}
	r.Tasks(k, func(w int, _ par.Runner) {
		lo, hi := cuts[w], cuts[w+1]
		mergeRuns(dst[lo.i+lo.j:hi.i+hi.j], x[lo.i:hi.i], y[lo.j:hi.j], less)
	})
}

// coRank returns the unique (i, j) with i+j == t such that merging x[:i]
// and y[:j] yields the first t elements of the stable merge of x and y
// (x wins ties, matching mergeRuns). Both slices must be sorted by less.
func coRank[E any](t int, x, y []E, less func(E, E) bool) (int, int) {
	lo, hi := max(0, t-len(y)), min(t, len(x))
	for {
		i := int(uint(lo+hi) >> 1)
		j := t - i
		switch {
		case j > 0 && i < len(x) && !less(y[j-1], x[i]):
			// y[j-1] >= x[i]: x[i] precedes y[j-1] in merge order, so it
			// belongs inside the prefix — i is too small.
			lo = i + 1
		case i > 0 && j < len(y) && less(y[j], x[i-1]):
			// x[i-1] follows y[j] in merge order — i is too big.
			hi = i - 1
		default:
			return i, j
		}
	}
}

// mergeRuns merges the sorted runs x and y into dst, which must have
// length len(x)+len(y). The left run wins ties, which preserves input
// order across the contiguous stage-1 runs; for cmp.Ordered keys less is
// cmp.Less, the order slices.Sort produces, so the parallel path orders
// float NaNs exactly like the serial path.
func mergeRuns[E any](dst, x, y []E, less func(E, E) bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(y[j], x[i]) {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}
