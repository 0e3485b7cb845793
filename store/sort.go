package store

import (
	"cmp"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/par"
	"implicitlayout/internal/rawfmt"
)

// sortSerialBelow is the input size under which forking sort runs is not
// worth the goroutine overhead.
const sortSerialBelow = 1 << 13

// radixLeafBytes is the largest bucket, in key and value bytes, that the
// radix engine finishes in cache (sortBucket): with its ping-pong buffer
// it stays in a core's L2, so the finishing passes run at cache speed. A
// constant, not an option.
const radixLeafBytes = 1 << 20

// sortByKey is the store's one key sort (stage 1 of Build, and the
// memtables' ordered views). It writes the records (srcK[i], srcV[i]) to
// dstK/dstV in cmp.Compare order — NaNs first, -0 equal to +0 — stably,
// which is what gives the duplicate policies' first/last occurrence its
// meaning. srcV and dstV are nil for a keys-only sort; src is only read
// and must not overlap dst. Sorted input (every flush and compaction) is
// copied, since a stable sort of it is the identity; otherwise integer
// and float keys, named types included, take the radix engine and
// strings the merge engine.
func sortByKey[K cmp.Ordered, V any](r par.Runner, srcK []K, srcV []V, dstK []K, dstV []V) {
	rec := reflect.TypeFor[K]().Size()
	if srcV != nil {
		rec += reflect.TypeFor[V]().Size()
	}
	sortByKeyLeaf(r, srcK, srcV, dstK, dstV, max(1, radixLeafBytes/int(rec)))
}

// sortByKeyLeaf is sortByKey with the radix engine's leaf size, in
// records, as a parameter; sortByKey fixes it to radixLeafBytes' worth.
func sortByKeyLeaf[K cmp.Ordered, V any](r par.Runner, srcK []K, srcV []V, dstK []K, dstV []V, leaf int) {
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
		radixAs[uint8](r, kind, srcK, srcV, dstK, dstV, leaf)
	case 2:
		radixAs[uint16](r, kind, srcK, srcV, dstK, dstV, leaf)
	case 4:
		radixAs[uint32](r, kind, srcK, srcV, dstK, dstV, leaf)
	default:
		radixAs[uint64](r, kind, srcK, srcV, dstK, dstV, leaf)
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
func radixAs[U unsigned, K, V any](r par.Runner, kind reflect.Kind, srcK []K, srcV []V, dstK []K, dstV []V, leaf int) {
	src, _ := mmapio.View[U](mmapio.Bytes(srcK))
	dst, _ := mmapio.View[U](mmapio.Bytes(dstK))
	radixSort(r, orderOf[U](kind), src, srcV, dst, dstV, leaf)
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

// radixSort is the fixed-width engine: a stable radix sort of the key
// bits src, values srcV riding along, into dst by the keyOrder image,
// one 8-bit digit at a time, skipping digits all keys agree on. Input of
// at most leaf records is sorted by sortBucket alone. Larger input takes
// one parallel MSD scatter on its highest differing digit straight from
// src into dst — its one pass through DRAM — after which each of the 256
// buckets, ≈ n/256 records, is finished in place by sortBucket while it
// sits in cache, on as few of its top digits as separate its records.
// Buckets go to workers weighted by size; a bucket over leaf records
// (skewed keys) takes another MSD step on its own differing digits, on
// every worker.
func radixSort[U unsigned, V any](r par.Runner, o keyOrder[U], src []U, srcV []V, dst []U, dstV []V, leaf int) {
	from, to := block[U, V]{src, srcV}, block[U, V]{dst, dstV}
	if len(src) > leaf {
		msdSort(r, o, from, to, to, false, leaf)
		return
	}
	var sc bucketScratch[U, V]
	sortBucket(o, from, to, differing(par.Serial(r.Lo), o, src), &sc)
}

// block is a run of records: key bit patterns and, unless the sort is
// keys-only, their values.
type block[U unsigned, V any] struct {
	k []U
	v []V
}

func (b block[U, V]) slice(lo, hi int) block[U, V] {
	if b.v == nil {
		return block[U, V]{k: b.k[lo:hi]}
	}
	return block[U, V]{b.k[lo:hi], b.v[lo:hi]}
}

// same reports whether b and c are the same non-empty records.
func (b block[U, V]) same(c block[U, V]) bool { return &b.k[0] == &c.k[0] }

// copyTo copies b to dst on r's workers.
func (b block[U, V]) copyTo(r par.Runner, dst block[U, V]) {
	r.For(len(b.k), func(_, lo, hi int) {
		copy(dst.k[lo:hi], b.k[lo:hi])
		if b.v != nil {
			copy(dst.v[lo:hi], b.v[lo:hi])
		}
	})
}

// differing returns the image bits on which the keys of a do not all
// agree.
func differing[U unsigned](r par.Runner, o keyOrder[U], a []U) U {
	if r.IsSerial() {
		and, or := span(o, a)
		return and ^ or
	}
	p, n := r.P(), len(a)
	parts := make([][2]U, p)
	r.Tasks(p, func(w int, _ par.Runner) {
		parts[w][0], parts[w][1] = span(o, a[w*n/p:(w+1)*n/p])
	})
	and, or := ^U(0), U(0)
	for _, pt := range parts {
		and, or = and&pt[0], or|pt[1]
	}
	return and ^ or
}

// span returns the AND and the OR of the images of a.
func span[U unsigned](o keyOrder[U], a []U) (and, or U) {
	and = ^U(0)
	for _, u := range a {
		x := o.image(u)
		and, or = and&x, or|x
	}
	return and, or
}

// msdSort is radixSort's MSD step, for more than leaf records. Each
// worker histograms the top differing digit of its contiguous block of
// src, and the histograms become bucket offsets after every earlier
// block's, so the scatter into mid is stable. mid is dst, or a free
// area as long as src; sortBucket then finishes each bucket from mid
// into dst, with one scratch per worker grown once to its largest bucket,
// and a bucket over leaf records recurses with the memory at hand: the
// bucket's range of src once src is free (not the caller's input) to
// scatter into, or else one allocation the size of the largest such
// bucket.
func msdSort[U unsigned, V any](r par.Runner, o keyOrder[U], src, mid, dst block[U, V], srcFree bool, leaf int) {
	n := len(src.k)
	if n < sortSerialBelow {
		r = par.Serial(r.Lo)
	}
	differ := differing(r, o, src.k)
	if differ == 0 { // one key image: a stable sort is a copy
		if !src.same(dst) {
			src.copyTo(r, dst)
		}
		return
	}
	p := r.P()
	shift := uint(0)
	for differ>>shift > 0xff {
		shift += 8
	}
	hist := make([][256]int, p)
	r.Tasks(p, func(w int, _ par.Runner) {
		h := &hist[w]
		for _, u := range src.k[w*n/p : (w+1)*n/p] {
			h[uint8(o.image(u)>>shift)]++
		}
	})
	var bounds [257]int // bucket b is mid[bounds[b]:bounds[b+1]]
	off := 0
	for b := range 256 {
		bounds[b] = off
		for w := range p {
			hist[w][b], off = off, off+hist[w][b]
		}
	}
	bounds[256] = n
	r.Tasks(p, func(w int, _ par.Runner) {
		scatter(o, shift, &hist[w], src.slice(w*n/p, (w+1)*n/p), mid)
	})
	inPlace := mid.same(dst)
	rest := differ & (U(1)<<shift - 1)
	if rest == 0 { // every bucket is one key image
		if !inPlace {
			mid.copyTo(r, dst)
		}
		return
	}

	// Buckets of at most leaf records, spread over the workers by size.
	var cum [257]int
	big := 0 // the largest bucket over leaf records
	for b := range 256 {
		m := bounds[b+1] - bounds[b]
		cum[b+1] = cum[b]
		if m <= leaf {
			cum[b+1] += m
		} else {
			big = max(big, m)
		}
	}
	r.ForWeighted(256, func(i int) int { return cum[i] }, func(_, lo, hi int) {
		var sc bucketScratch[U, V]
		most := 0
		for b := lo; b < hi; b++ {
			if m := bounds[b+1] - bounds[b]; m <= leaf {
				most = max(most, m)
			}
		}
		sc.grow(most, dst.v != nil)
		for b := lo; b < hi; b++ {
			blo, bhi := bounds[b], bounds[b+1]
			if bhi-blo <= leaf {
				sortBucket(o, mid.slice(blo, bhi), dst.slice(blo, bhi), rest, &sc)
			}
		}
	})

	// Larger buckets one at a time, each on every worker.
	spare := src
	if inPlace && !srcFree && big > 0 {
		spare.k = make([]U, big)
		if dst.v != nil {
			spare.v = make([]V, big)
		}
	}
	for b := range 256 {
		blo, bhi := bounds[b], bounds[b+1]
		if bhi-blo <= leaf {
			continue
		}
		if !inPlace {
			msdSort(r, o, mid.slice(blo, bhi), dst.slice(blo, bhi), dst.slice(blo, bhi), true, leaf)
			continue
		}
		into := spare.slice(0, bhi-blo)
		if srcFree {
			into = spare.slice(blo, bhi)
		}
		msdSort(r, o, dst.slice(blo, bhi), into, dst.slice(blo, bhi), true, leaf)
	}
}

// insertionMax is the longest run of records the finish sorts by
// insertion outright: below it a histogram costs more than the moves.
const insertionMax = 32

// pairsFrom is the smallest bucket whose counting pass also marks the
// values of its top two differing digits: below it the 8 KiB bitmap
// costs more to clear than the exact count can save.
const pairsFrom = 1 << 9

// bucketScratch is one worker's bucket state: a histogram per digit, a
// row the counting pass spends on absent digits, a bit per value of two
// digits, and the ping-pong buffer, large enough for every bucket the
// worker finishes.
type bucketScratch[U unsigned, V any] struct {
	hist  [8][256]int
	spare [256]int
	pairs pairBits
	buf   block[U, V]
}

// pairBits has a bit for each value of two digits.
type pairBits [1 << 16 / 64]uint64

// grow makes the buffer hold at least n records.
func (sc *bucketScratch[U, V]) grow(n int, vals bool) {
	if cap(sc.buf.k) < n {
		sc.buf.k = make([]U, n)
		if vals {
			sc.buf.v = make([]V, n)
		}
	}
}

// Finish paths sortBucket reports, so tests can show they reach each.
const (
	finishInsertion = 1 << iota // the bucket was short enough to insert outright
	finishAllDigits             // every differing digit was kept: nothing left to finish
	finishSettled               // one insertion pass completed the kept digits' order
	finishBudget                // the insertion pass ran out of moves
	finishRunMSD                // a run sharing the kept digits took an MSD step
	finishRunNested             // and one of its sub-runs took another
)

// sortBucket sorts src into dst stably by the image digits set in differ,
// the digits above them being shared by every record. Buckets of at most
// insertionMax records are inserted outright. Otherwise one read pass
// counts the top three digits of differ and, from pairsFrom records,
// marks the values the top two take together when they are adjacent;
// further digits are counted when needed. From these counts it keeps, top down, the fewest
// digits on which the records differ that are estimated to split them
// into groups of two or fewer — exact for the top two, the product of
// distinct counts beyond — and skips the second digit when the pair
// count shows it a function of the first. It sorts by the kept digits
// alone, in stable LSD passes that ping-pong between dst and sc's buffer
// so the last one lands in dst. An insertion pass allowed n moves then
// completes the order; if it runs out, each run of records sharing the
// kept digits is finished on its own by finishRun, the runs it already
// sorted left as they are. src is either dst itself (a bucket finished
// in place) or only read. It returns the finish paths taken.
func sortBucket[U unsigned, V any](o keyOrder[U], src, dst block[U, V], differ U, sc *bucketScratch[U, V]) (paths int) {
	n := len(src.k)
	inPlace := n > 0 && src.same(dst)
	if n <= insertionMax {
		if !inPlace {
			copy(dst.k, src.k)
			copy(dst.v, src.v)
		}
		insertion(o, dst, math.MaxInt)
		return finishInsertion
	}

	// Count the top three digits of differ; the other digits the bucket
	// needs are counted on demand.
	h := &sc.hist
	var top [3]int
	rows := [3]*[256]int{&sc.spare, &sc.spare, &sc.spare}
	var counted [8]bool
	rest := differ
	for i := range top {
		top[i] = topDigit(rest)
		if top[i] >= 0 {
			rest &^= 0xff << top[i]
			rows[i] = &h[top[i]/8]
			counted[top[i]/8] = true
		}
	}
	var pairs *pairBits
	if n >= pairsFrom && top[2] >= 0 && top[1] == top[0]-8 {
		pairs = &sc.pairs
	}
	count(o, src.k, rows, pairs, top)
	row := func(s uint) *[256]int {
		if !counted[s/8] {
			countDigit(o, src.k, &h[s/8], s)
			counted[s/8] = true
		}
		return &h[s/8]
	}

	// Keep the bucket's own differing digits, top down, until the groups
	// they make are estimated to hold two records or fewer.
	var shifts [8]uint
	keep, groups := 0, 1
	for rest = differ; rest != 0 && 2*groups < n; {
		s := uint(topDigit(rest))
		rest &^= 0xff << s
		d := distinct(row(s))
		switch {
		case d == 1:
			continue // a digit every record shares
		case keep == 1 && pairs != nil && shifts[0] == uint(top[0]) && s == uint(top[1]):
			pairGroups := 0
			for _, w := range pairs {
				pairGroups += bits.OnesCount64(w)
			}
			if pairGroups == groups {
				continue // a function of the digit above: it splits no group
			}
			groups = pairGroups
		default:
			groups = min(n, groups*d)
		}
		shifts[keep] = s
		keep++
	}
	if keep == 0 { // every record shares every digit
		if !inPlace {
			copy(dst.k, src.k)
			copy(dst.v, src.v)
		}
		return finishAllDigits
	}

	// LSD passes over the kept digits, the lowest first. Pass i's offsets
	// overwrite row i, which no later pass reads.
	for i := range keep {
		cnt := row(shifts[keep-1-i])
		off := 0
		for b := range 256 {
			h[i][b], off = off, off+cnt[b]
		}
	}
	var buf block[U, V]
	if keep > 1 || inPlace {
		sc.grow(n, src.v != nil)
		buf = sc.buf.slice(0, n)
	}
	in := src
	if inPlace && keep%2 == 1 {
		copy(buf.k, src.k)
		copy(buf.v, src.v)
		in = buf
	}
	for i := range keep {
		out := dst
		if (keep-i)%2 == 0 {
			out = buf
		}
		scatter(o, shifts[keep-1-i], &h[i], in, out)
		in = out
	}
	if rest == 0 {
		return finishAllDigits
	}

	// Complete the order within each run sharing the kept digits.
	stop := insertion(o, dst, n)
	if stop == n {
		return finishSettled
	}
	low := shifts[keep-1]
	at := o.image(dst.k[stop]) >> low
	for stop > 0 && o.image(dst.k[stop-1])>>low == at {
		stop-- // the run the pass stopped in starts here
	}
	sc.grow(n, src.v != nil)
	buf = sc.buf.slice(0, n)
	below := differ & (U(1)<<low - 1)
	paths = finishBudget
	for i := stop; i < n; {
		at = o.image(dst.k[i]) >> low
		j := i + 1
		for j < n && o.image(dst.k[j])>>low == at {
			j++
		}
		paths |= finishRun(o, dst.slice(i, j), below, buf, false)
		i = j
	}
	return paths
}

// finishRun sorts run in place stably by the image digits set in differ,
// the digits above them being shared by every record: by insertion up to
// insertionMax records, otherwise by one MSD scatter through buf on the
// top digit the run does not share, each sub-run then finished the same
// way. nested marks a sub-run, for the paths it reports.
func finishRun[U unsigned, V any](o keyOrder[U], run block[U, V], differ U, buf block[U, V], nested bool) (paths int) {
	n := len(run.k)
	if n <= insertionMax {
		insertion(o, run, math.MaxInt)
		return 0
	}
	paths = finishRunMSD
	if nested {
		paths = finishRunNested
	}
	for s := topDigit(differ); s >= 0; s = topDigit(differ) {
		shift := uint(s)
		differ &= U(1)<<shift - 1
		var h [256]int
		countDigit(o, run.k, &h, shift)
		if h[uint8(o.image(run.k[0])>>shift)] == n {
			continue // a digit every record shares
		}
		off := 0
		for b := range h {
			h[b], off = off, off+h[b]
		}
		tmp := buf.slice(0, n)
		scatter(o, shift, &h, run, tmp)
		copy(run.k, tmp.k)
		copy(run.v, tmp.v)
		lo := 0
		for _, hi := range h { // the scatter left each offset at its bucket's end
			if hi-lo > 1 {
				paths |= finishRun(o, run.slice(lo, hi), differ, buf, true)
			}
			lo = hi
		}
		return paths
	}
	return paths // every record shares every digit
}

// insertion sorts b stably by image, inserting one record at a time,
// until the records moved exceed budget. It returns the number of leading
// records it sorted, len(b.k) when it finished. A record moves back only
// past greater keys, so an order by a prefix of the image that b was in
// still holds when it stops.
func insertion[U unsigned, V any](o keyOrder[U], b block[U, V], budget int) int {
	k := b.k
	if len(k) < 2 {
		return len(k)
	}
	prev := o.image(k[0]) // the largest image so far
	for i := 1; i < len(k); i++ {
		u := k[i]
		x := o.image(u)
		if x >= prev {
			prev = x
			continue
		}
		if budget < 0 {
			return i
		}
		j := i
		if b.v == nil {
			for ; j > 0 && o.image(k[j-1]) > x; j-- {
				k[j] = k[j-1]
			}
			k[j] = u
		} else {
			vs := b.v[:len(k)]
			v := vs[i]
			for ; j > 0 && o.image(k[j-1]) > x; j-- {
				k[j], vs[j] = k[j-1], vs[j-1]
			}
			k[j], vs[j] = u, v
		}
		budget -= i - j
	}
	return len(k)
}

// topDigit returns the shift of the highest 8-bit digit set in differ, or
// -1 when differ is zero.
func topDigit[U unsigned](differ U) int {
	if differ == 0 {
		return -1
	}
	return (bits.Len64(uint64(differ)) - 1) &^ 7
}

// distinct counts the digit values a histogram row holds.
func distinct(row *[256]int) int {
	c := 0
	for _, x := range row {
		if x != 0 {
			c++
		}
	}
	return c
}

// count is sortBucket's one read pass over the images of a: rows[i] gets
// the histogram of the digit at shift top[i] (a negative shift counts
// nothing the caller reads, into a spare row), and a non-nil pairs the
// bit of each value the adjacent digits at top[0] and top[1] take
// together. The counts per key are a fixed sequence, several times
// faster than a loop over a digit list.
func count[U unsigned](o keyOrder[U], a []U, rows [3]*[256]int, pairs *pairBits, top [3]int) {
	for _, r := range rows {
		*r = [256]int{}
	}
	s0, s1, s2 := uint(max(top[0], 0))&63, uint(max(top[1], 0))&63, uint(max(top[2], 0))&63
	r0, r1, r2 := rows[0], rows[1], rows[2]
	if pairs == nil {
		for _, u := range a {
			x := uint64(o.image(u))
			r0[uint8(x>>s0)]++
			r1[uint8(x>>s1)]++
			r2[uint8(x>>s2)]++
		}
		return
	}
	*pairs = pairBits{}
	for _, u := range a {
		x := uint64(o.image(u))
		r0[uint8(x>>s0)]++
		y := x >> s1
		r1[uint8(y)]++
		r2[uint8(x>>s2)]++
		p := uint16(y)
		pairs[p>>6] |= 1 << (p & 63)
	}
}

// countDigit sets row to the histogram of the digit at shift of the
// images of a.
func countDigit[U unsigned](o keyOrder[U], a []U, row *[256]int, shift uint) {
	*row = [256]int{}
	for _, u := range a {
		row[uint8(o.image(u)>>shift)]++
	}
}

// scatter moves each record of in to out at the next offset h holds for
// its image digit at shift, advancing that offset.
func scatter[U unsigned, V any](o keyOrder[U], shift uint, h *[256]int, in, out block[U, V]) {
	if in.v == nil {
		for _, u := range in.k {
			b := uint8(o.image(u) >> shift)
			out.k[h[b]] = u
			h[b]++
		}
		return
	}
	inV, outK, outV := in.v[:len(in.k)], out.k, out.v
	for j, u := range in.k {
		b := uint8(o.image(u) >> shift)
		k := h[b]
		outK[k], outV[k] = u, inV[j]
		h[b] = k + 1
	}
}

// parallelSort sorts a ascending using the runner's workers. It is the
// key-only fast path: serial leaves use the specialized slices.Sort.
func parallelSort[T cmp.Ordered](r par.Runner, a []T) {
	parallelSortRuns(r, a, slices.Sort[[]T, T], cmp.Less[T])
}

// parallelSortStable sorts a ascending by the comparison cmpf, stably:
// elements that compare equal keep their input order. The merge engine
// uses it for key–value records with string keys, the only keys
// sortByKey sends there, where stability is what makes the duplicate-key
// policies (first/last occurrence wins) well defined.
func parallelSortStable[E any](r par.Runner, a []E, cmpf func(E, E) int) {
	parallelSortRuns(r, a,
		func(run []E) { slices.SortStableFunc(run, cmpf) },
		func(x, y E) bool { return cmpf(x, y) < 0 })
}

// parallelSortRuns is the shared engine: each worker sorts one contiguous
// run with sortRun, then runs are merged pairwise in parallel rounds under
// the order less. It uses one n-element scratch buffer; sortByKey's merge
// engine is the only caller, so the transient allocation never touches
// the query path. The merge keeps the left run on ties, so the whole sort
// is stable whenever sortRun is.
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
// order across the contiguous stage-1 runs. less is the order the runs
// were sorted by — cmp.Less for the keys-only string sort, the key
// comparison for records — so the parallel path orders keys exactly like
// the serial path.
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
