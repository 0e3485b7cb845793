package layout

import (
	"fmt"
	"slices"
	"sync"

	"implicitlayout/internal/bits"
)

// Write lays the ascending keys out in layout k in place, moving vals
// (nil for keys only) alongside, so vals[i] stays the payload of keys[i].
// b is the node capacity of BTree and Hier and is ignored by the other
// layouts; Read is the inverse. Both write the layout directly — every
// record goes straight to its final position — where package perm's
// in-place permutations (the paper's operation) reach the same array by
// cycles or swap rounds; the resulting arrays are identical.
//
//   - VEB runs the layout's own recursion in place: gather the top
//     tree's keys into a buffer, move the bottom subtrees to their final
//     offsets, write the top back, and recurse. Subtrees of at most
//     vebLeaf records are written through their rank table. Scratch is
//     one O(√n) buffer.
//   - BST, BTree and Hier move each level's inner keys, in order, in
//     front of the tree's last level and go on with them, through a
//     buffer of at most n/8 records; Hier then lays every page block
//     out through its in-page slot map.
//   - Sorted is the identity.
//
// Write and Read run on the calling goroutine; callers lay out
// independent arrays (a store's shards) concurrently. Write panics if
// vals is non-nil and its length differs from len(keys).
func Write[K, V any](k Kind, keys []K, vals []V, b int) {
	write(k, keys, vals, b, vebLeaf)
}

// Read writes the ascending order of srcK, laid out in layout k with the
// same b, into dstK, and moves srcV into dstV alongside (both nil for
// keys only): it copies the source and restores sorted order in the
// copy in place. The source is never written — it may be a read-only
// mapping — and may be the destination itself but must not otherwise
// overlap it. Read panics if the lengths differ.
func Read[K, V any](k Kind, dstK []K, dstV []V, srcK []K, srcV []V, b int) {
	read(k, dstK, dstV, srcK, srcV, b, vebLeaf)
}

// write and read are Write and Read with the vEB table-leaf size, which
// also floors the B-tree layouts' buffer, as a parameter, so tests reach
// every step of the vEB recursion and the chunked B-tree moves at small
// sizes.
func write[K, V any](k Kind, keys []K, vals []V, b, leaf int) {
	if vals != nil && len(vals) != len(keys) {
		panic(fmt.Sprintf("layout: %d keys but %d values", len(keys), len(vals)))
	}
	if len(keys) < 2 {
		return
	}
	switch k {
	case Sorted:
	case VEB:
		newVEBStep[K, V](len(keys), leaf, vals != nil).write(keys, vals)
	default:
		treeLayout(k, keys, b, leaf, false)
		if vals != nil {
			treeLayout(k, vals, b, leaf, false)
		}
	}
}

func read[K, V any](k Kind, dstK []K, dstV []V, srcK []K, srcV []V, b, leaf int) {
	n := len(srcK)
	if len(dstK) != n || len(srcV) != len(dstV) || (srcV != nil && len(srcV) != n) || (srcV == nil) != (dstV == nil) {
		panic(fmt.Sprintf("layout: Read of %d keys and %d values into %d keys and %d values",
			n, len(srcV), len(dstK), len(dstV)))
	}
	copy(dstK, srcK)
	copy(dstV, srcV)
	if n < 2 {
		return
	}
	switch k {
	case Sorted:
	case VEB:
		newVEBStep[K, V](n, leaf, dstV != nil).read(dstK, dstV)
	default:
		treeLayout(k, dstK, b, leaf, true)
		if dstV != nil {
			treeLayout(k, dstV, b, leaf, true)
		}
	}
}

// vebLeaf is the largest vEB subtree written through its rank table
// rather than by recursing: its records fit in the L1 cache, and
// recursing below it costs more in calls than it saves in moves.
const vebLeaf = 1024

// vebTables memoizes the rank tables of vEB trees up to vebLeaf nodes;
// concurrent writers share them.
var vebTables [vebLeaf + 1]struct {
	once sync.Once
	t    []uint16
}

func vebTable(n int) []uint16 {
	e := &vebTables[n]
	e.once.Do(func() {
		e.t = make([]uint16, n)
		for pos, r := range vebRanks(n) {
			e.t[pos] = uint16(r)
		}
	})
	return e.t
}

// sub returns vals[lo:hi], or nil for a keys-only call.
func sub[V any](vals []V, lo, hi int) []V {
	if vals == nil {
		return nil
	}
	return vals[lo:hi]
}

// vebStep runs the vEB recursion: bk and bv hold the largest top tree
// or table leaf of the array, and subtrees of at most leaf records are
// moved through their rank table.
type vebStep[K, V any] struct {
	bk   []K
	bv   []V
	leaf int
}

// newVEBStep sizes the scratch for an array of n ≥ 2 records.
func newVEBStep[K, V any](n, leaf int, withVals bool) vebStep[K, V] {
	size := min(n, max(vebDecompose(n, bits.Levels(n)).topN, leaf))
	st := vebStep[K, V]{bk: make([]K, size), leaf: leaf}
	if withVals {
		st.bv = make([]V, size)
	}
	return st
}

// write lays the sorted keys (and vals) out as a vEB tree in place.
func (st vebStep[K, V]) write(keys []K, vals []V) {
	n := len(keys)
	if n <= st.leaf {
		tableWrite(keys, st.bk, vebTable(n))
		if vals != nil {
			tableWrite(vals, st.bv, vebTable(n))
		}
		return
	}
	d := vebDecompose(n, bits.Levels(n))
	// The top tree's keys leave their in-order slots for the buffer,
	// every bottom moves right to its final offset (the last first, so
	// no bottom overwrites one not yet moved), and the top tree is copied
	// into the freed prefix and laid out there, then every bottom.
	for i := range d.topN {
		src := d.sizeSum(i+1) + i
		st.bk[i] = keys[src]
		if vals != nil {
			st.bv[i] = vals[src]
		}
	}
	for j := d.topN; j >= 0; j-- {
		s := d.size(j)
		from, to := d.sizeSum(j)+j, d.topN+d.sizeSum(j)
		copy(keys[to:to+s], keys[from:from+s])
		if vals != nil {
			copy(vals[to:to+s], vals[from:from+s])
		}
	}
	top, topV := keys[:d.topN], sub(vals, 0, d.topN)
	copy(top, st.bk)
	if vals != nil {
		copy(topV, st.bv)
	}
	st.write(top, topV)
	for j, o := 0, d.topN; o < n; j++ {
		s := d.size(j)
		st.write(keys[o:o+s], sub(vals, o, o+s))
		o += s
	}
}

// read is write backwards: bottoms first, then the top tree back to
// sorted order and into the buffer, then every (sorted) bottom left to
// its in-order slot, the first first, and the top keys between them.
func (st vebStep[K, V]) read(keys []K, vals []V) {
	n := len(keys)
	if n <= st.leaf {
		tableRead(keys, st.bk, vebTable(n))
		if vals != nil {
			tableRead(vals, st.bv, vebTable(n))
		}
		return
	}
	d := vebDecompose(n, bits.Levels(n))
	for j, o := 0, d.topN; o < n; j++ {
		s := d.size(j)
		st.read(keys[o:o+s], sub(vals, o, o+s))
		o += s
	}
	top, topV := keys[:d.topN], sub(vals, 0, d.topN)
	st.read(top, topV)
	copy(st.bk, top)
	if vals != nil {
		copy(st.bv, topV)
	}
	for j := 0; j <= d.topN; j++ {
		s := d.size(j)
		from, to := d.topN+d.sizeSum(j), d.sizeSum(j)+j
		copy(keys[to:to+s], keys[from:from+s])
		if vals != nil {
			copy(vals[to:to+s], vals[from:from+s])
		}
	}
	for i := range d.topN {
		dst := d.sizeSum(i+1) + i
		keys[dst] = st.bk[i]
		if vals != nil {
			vals[dst] = st.bv[i]
		}
	}
}

// tableWrite lays a out through rank table t (a[pos] = sorted a[t[pos]]),
// staging the sorted records in buf.
func tableWrite[T any](a, buf []T, t []uint16) {
	buf = buf[:len(t)]
	copy(buf, a)
	a = a[:len(t)]
	for pos, r := range t {
		a[pos] = buf[r]
	}
}

// tableRead inverts tableWrite.
func tableRead[T any](a, buf []T, t []uint16) {
	buf = buf[:len(t)]
	copy(buf, a)
	a = a[:len(t)]
	for pos, r := range t {
		a[r] = buf[pos]
	}
}

// treeLayout lays the sorted a out in layout k — BST, BTree or Hier — in
// place, or with read restores sorted order. Its buffer holds one chunk
// of inner keys — all of the top level's, up to n/8 (but at least leaf)
// — and, for Hier, one page block.
func treeLayout[T any](k Kind, a []T, b, leaf int, read bool) {
	n := len(a)
	var slots *[2][]int32
	switch k {
	case BST:
		b = 1
	case BTree:
		if b < 1 {
			panic("layout: B-tree node capacity must be >= 1")
		}
	case Hier:
		slots = hierSlots(n, b)
		b = HierPageKeys(b)
	default:
		panic("layout: unknown kind")
	}
	size := 0
	if n > b {
		size = min(btreeInner(n, b), max(n/8, leaf))
	}
	if slots != nil {
		size = max(size, min(n, b))
	}
	buf := make([]T, size)
	if read {
		if slots != nil {
			pages(a, buf, b, slots, true)
		}
		btreeRead(a, buf, b)
		return
	}
	btreeWrite(a, buf, b)
	if slots != nil {
		pages(a, buf, b, slots, false)
	}
}

// The level-order layout of a complete B-tree of n keys and node
// capacity b is the layout of its inner keys — every key above the last
// level, a perfect tree of btreeInner(n, b) keys — followed by the last
// level's keys in order. So btreeWrite unzips the inner keys, in order,
// in front of the last level and goes on with them, down to a single
// node; btreeRead zips the levels back up, the smallest first.
func btreeWrite[T any](a, buf []T, b int) {
	for n := len(a); n > b; n = btreeInner(n, b) {
		unzip(a[:n], buf, b, btreeInner(n, b), false)
	}
}

func btreeRead[T any](a, buf []T, b int) {
	var sizes []int
	for n := len(a); n > b; n = btreeInner(n, b) {
		sizes = append(sizes, n)
	}
	for _, n := range slices.Backward(sizes) {
		unzip(a[:n], buf, b, btreeInner(n, b), true)
	}
}

// btreeInner returns the keys above the last level of a complete B-tree
// of n > b keys: the largest (b+1)^k − 1 below n.
func btreeInner(n, b int) int {
	inner := b
	for (inner+1)*(b+1)-1 < n {
		inner = (inner+1)*(b+1) - 1
	}
	return inner
}

// unzip moves the inner keys of the sorted a to a[:inner] and the
// last-level keys behind them, both kept in order; zip (read) undoes it.
// In order, the tree reads as leaf group 0, inner key 0, leaf group 1,
// inner key 1, ..., leaf group inner: group g holds clamp(w−g·b, 0, b)
// of the w last-level keys, filled left to right, so the groups below
// w/b are full and those from ⌈w/b⌉ on are empty. The keys move in
// chunks of at most len(buf) inner keys. One pass over a chunk's groups,
// the last first, takes its inner keys to the buffer and moves its
// leaves right up to the chunk's end; the leaves before the chunk then
// move right by the chunk's inner-key count, and the buffer fills the
// gap that opens. Every leaf moves right, so no group lands on one not
// yet moved.
func unzip[T any](a, buf []T, b, inner int, zip bool) {
	w := len(a) - inner
	chunk := func(i0, i1 int) {
		c, lo, hi := i1-i0, min(w, i0*b)+i0, min(w, i1*b)+i1
		gf, ge := clamp(w/b, i0, i1), clamp((w+b-1)/b, i0, i1)
		bf, be := buf[:gf-i0], buf[ge-i0:c] // inner keys after full and empty groups
		// The partial group, if any, is ge−1 ≥ gf.
		l := w - gf*b
		if zip {
			copy(buf, a[i0:i1])
			copy(a[i0:lo], a[i0+c:lo+c])
			from, to := lo+c, lo
			for _, x := range bf {
				if b <= 16 { // too few keys to pay for a memmove call
					for j := range b {
						a[to+j] = a[from+j]
					}
				} else {
					copy(a[to:to+b], a[from:from+b])
				}
				from += b
				to += b
				a[to] = x
				to++
			}
			if gf < ge {
				copy(a[to:to+l], a[from:from+l])
				to += l
				a[to] = buf[gf-i0]
				to++
			}
			copy(a[to:hi], be)
			return
		}
		from, to := min(w, ge*b)+ge, hi
		copy(be, a[from:hi])
		if gf < ge {
			from--
			buf[gf-i0] = a[from]
			from -= l
			to -= l
			copy(a[to:to+l], a[from:from+l])
		}
		for i := len(bf) - 1; i >= 0; i-- {
			from--
			bf[i] = a[from]
			from -= b
			to -= b
			if b <= 16 { // backwards: the group may overlap its new place
				for j := b - 1; j >= 0; j-- {
					a[to+j] = a[from+j]
				}
			} else {
				copy(a[to:to+b], a[from:from+b])
			}
		}
		copy(a[i0+c:lo+c], a[i0:lo])
		copy(a[i0:i1], buf[:c])
	}
	if zip {
		// Zip runs the chunks backwards, each undoing one unzip step
		// on the state the later chunks left, whatever the cut.
		for i1 := inner; i1 > 0; i1 -= min(i1, len(buf)) {
			chunk(max(0, i1-len(buf)), i1)
		}
		return
	}
	for i0 := 0; i0 < inner; i0 += len(buf) {
		chunk(i0, min(inner, i0+len(buf)))
	}
}

// hierSlots returns the in-page position of every in-page rank of the
// hierarchical layout: slots[0] for a full page block, slots[1] for the
// last, partial one (nil when every page is full).
func hierSlots(n, b int) *[2][]int32 {
	p := HierPageKeys(b)
	var s [2][]int32
	if n >= p {
		s[0] = btreeSlots(p, b)
	}
	if last := n % p; last != 0 {
		s[1] = btreeSlots(last, b)
	}
	return &s
}

func btreeSlots(n, b int) []int32 {
	s := make([]int32, n)
	for pos, r := range btreeRanks(n, b) {
		s[r] = int32(pos)
	}
	return s
}

// pages lays every page block of p keys of a out as its in-page B-tree
// (read: back to sorted order) through the slot maps, staging each page
// in buf. The hierarchical layout is the page-capacity B-tree layout of
// the keys with every page block so laid out.
func pages[T any](a, buf []T, p int, slots *[2][]int32, read bool) {
	for lo := 0; lo < len(a); lo += p {
		page := a[lo:min(lo+p, len(a))]
		slot := slots[0]
		if len(page) < p {
			slot = slots[1]
		}
		tmp := buf[:len(page)]
		copy(tmp, page)
		if read {
			for r, pos := range slot {
				page[r] = tmp[pos]
			}
			continue
		}
		for r, pos := range slot {
			page[pos] = tmp[r]
		}
	}
}
