package perm

import (
	"fmt"

	"implicitlayout/internal/core"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// PermuteWith rearranges keys (which must be in ascending sorted order
// for the result to be a search tree) into layout k using algorithm a, in
// place, moving vals by the exact same permutation: after the call,
// vals[i] is still the payload of keys[i] for every i. Both families and
// every layout are supported with the same options as Permute.
//
// The kernels never compare elements, so the pairing is realized by a
// zipped memory backend rather than by materializing an array of pairs —
// the key array stays densely packed for the query kernels, and the
// permutation stays in place for both slices (O(P log N) auxiliary
// space, unchanged).
//
// PermuteWith panics if len(keys) != len(vals).
func PermuteWith[K, V any](keys []K, vals []V, k layout.Kind, a Algorithm, opts ...Option) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("perm: PermuteWith slice lengths differ: %d keys, %d vals",
			len(keys), len(vals)))
	}
	z := vec.ZipOf(keys, vals)
	core.Permute[vec.KV[K, V]](buildConfig(opts).options(), &z, k, a.core())
}
