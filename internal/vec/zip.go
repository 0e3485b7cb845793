package vec

// KV is the element type a Zip backend presents to the permutation
// kernels: one key paired with its payload. The kernels never inspect
// elements — they only move them — so the pairing exists purely to make
// two slices travel under one permutation.
type KV[K, V any] struct {
	Key K
	Val V
}

// Zip adapts two equal-length parallel slices to the Vec interface as a
// single logical array of key–value pairs: every Swap, Set, and SwapRange
// applies identically to both slices, so whatever permutation a kernel
// realizes on the keys is realized on the values too. The processor
// argument is ignored, like Slice. Keeping the slices separate (rather
// than materializing []KV) preserves the caller's memory layout: the key
// array stays densely packed for the search kernels.
type Zip[K, V any] struct {
	Keys []K
	Vals []V
}

// ZipOf wraps the parallel slices keys and vals in a Zip backend. It
// panics if the lengths differ — a length mismatch could only scramble
// data silently.
func ZipOf[K, V any](keys []K, vals []V) Zip[K, V] {
	if len(keys) != len(vals) {
		panic("vec: zipped slices must have equal length")
	}
	return Zip[K, V]{Keys: keys, Vals: vals}
}

// Len returns the number of pairs.
func (z Zip[K, V]) Len() int { return len(z.Keys) }

// Get returns the pair at index i.
func (z Zip[K, V]) Get(_, i int) KV[K, V] { return KV[K, V]{Key: z.Keys[i], Val: z.Vals[i]} }

// Set stores the pair x at index i.
func (z Zip[K, V]) Set(_, i int, x KV[K, V]) { z.Keys[i], z.Vals[i] = x.Key, x.Val }

// Swap exchanges the pairs at i and j.
func (z Zip[K, V]) Swap(_, i, j int) {
	z.Keys[i], z.Keys[j] = z.Keys[j], z.Keys[i]
	z.Vals[i], z.Vals[j] = z.Vals[j], z.Vals[i]
}

// SwapRange exchanges the non-overlapping pair blocks [i, i+n) and
// [j, j+n).
func (z Zip[K, V]) SwapRange(_, i, j, n int) {
	swapUnits(z.Keys, i, 0, j, 0, n, 1)
	swapUnits(z.Vals, i, 0, j, 0, n, 1)
}

// SwapUnits exchanges n pair-unit pairs of c pairs at strides di and dj.
func (z Zip[K, V]) SwapUnits(_, i, di, j, dj, c, n int) {
	if c == 1 {
		ks, vs := z.Keys, z.Vals
		for ; n > 0; n-- {
			ks[i], ks[j] = ks[j], ks[i]
			vs[i], vs[j] = vs[j], vs[i]
			i += di
			j += dj
		}
		return
	}
	// The units are disjoint, so moving all keys first, then all values,
	// gives the same result as moving pair by pair.
	swapUnits(z.Keys, i, di, j, dj, c, n)
	swapUnits(z.Vals, i, di, j, dj, c, n)
}

// BeginRound is a no-op for the zipped slice backend.
func (Zip[K, V]) BeginRound(string, int) {}

// AddInstr is a no-op for the zipped slice backend.
func (Zip[K, V]) AddInstr(int, int) {}

// ApplyCycles runs the cycle walks of c over [off, off+c.N), moving
// each key and its value together.
func (z Zip[K, V]) ApplyCycles(_, off int, c *Cycles) bool {
	ks, vs := z.Keys[off:off+c.N], z.Vals[off:off+c.N]
	walk := c.Walk
	start := 0
	for _, e := range c.Ends {
		cyc := walk[start:e]
		tk, tv := ks[cyc[0]], vs[cyc[0]]
		for k := 1; k < len(cyc); k++ {
			ks[cyc[k-1]], vs[cyc[k-1]] = ks[cyc[k]], vs[cyc[k]]
		}
		last := cyc[len(cyc)-1]
		ks[last], vs[last] = tk, tv
		start = int(e)
	}
	return true
}
