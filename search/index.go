package search

import (
	"cmp"
	"fmt"

	"implicitlayout/layout"
)

// Index bundles a laid-out array with the query routine matching its
// layout, giving the layouts a common interface for examples, benchmarks
// and applications.
type Index[T cmp.Ordered] struct {
	data []T
	kind layout.Kind
	b    int
}

// NewIndex wraps data, already permuted into layout k (with node capacity
// b for B-tree layouts), in a queryable index. It does not copy data.
// For B-tree layouts a b below 1 defaults to layout.DefaultB, matching
// the capacity perm.Permute and store.Build use when none is given —
// pass b explicitly whenever the layout was built with another: b must
// equal the build capacity or every query silently descends the wrong
// tree. It panics on a Kind that names no layout.
func NewIndex[T cmp.Ordered](data []T, k layout.Kind, b int) *Index[T] {
	switch k {
	case layout.Sorted, layout.BST, layout.VEB:
	case layout.BTree, layout.Hier:
		if b < 1 {
			b = layout.DefaultB
		}
	default:
		panic(fmt.Sprintf("search: unknown layout %v", k))
	}
	return &Index[T]{data: data, kind: k, b: b}
}

// Len returns the number of keys.
func (ix *Index[T]) Len() int { return len(ix.data) }

// Data returns the laid-out array itself — not a copy. Callers must
// treat it as read-only: it is shared with every other user of the
// index, and for a store serving a mapped segment it is a read-only
// file mapping, where a write does not corrupt data but faults.
func (ix *Index[T]) Data() []T { return ix.data }

// Kind returns the layout the index queries.
func (ix *Index[T]) Kind() layout.Kind { return ix.kind }

// B returns the B-tree node capacity the index queries with (0 for
// non-B-tree layouts built with no capacity).
func (ix *Index[T]) B() int { return ix.b }

// At returns the key stored at array position pos, as returned by Find or
// Predecessor.
func (ix *Index[T]) At(pos int) T { return ix.data[pos] }

// PosOfRank returns the array position of the key with in-order rank
// `rank` (0-based): the forward permutation of the paper, computed in
// O(log N) index arithmetic without any rank table. It panics if rank is
// outside [0, Len()).
func (ix *Index[T]) PosOfRank(rank int) int {
	return layout.PosOf(ix.kind, rank, len(ix.data), ix.b)
}

// AtRank returns the rank-th smallest key (0-based). Together with
// PosOfRank it gives layouts random access by sorted rank at O(log N)
// per call. Ordered iteration does not use it: a Cursor (or Scan and
// Range, built on one) steps to the next key in amortized O(1).
func (ix *Index[T]) AtRank(rank int) T { return ix.data[ix.PosOfRank(rank)] }

// Find returns the array position of x, or -1 if absent.
func (ix *Index[T]) Find(x T) int {
	switch ix.kind {
	case layout.Sorted:
		return Binary(ix.data, x)
	case layout.BST:
		return BST(ix.data, x)
	case layout.BTree:
		return BTree(ix.data, ix.b, x)
	case layout.VEB:
		return VEB(ix.data, x)
	case layout.Hier:
		return Hier(ix.data, ix.b, x)
	}
	panic(fmt.Sprintf("search: unknown layout %v", ix.kind))
}

// Contains reports whether x is present.
func (ix *Index[T]) Contains(x T) bool { return ix.Find(x) >= 0 }

// FindBatch answers all queries with p parallel workers (values below 1
// fall back to serial) and returns the number of hits. Queries are
// independent — the embarrassingly parallel workload of the paper's
// evaluation, where each GPU thread owns one query. Each worker's chunk
// dispatches to the layout's interleaved ring kernel above
// InterleaveMinBatch queries (see FindBatchInto) and to one-at-a-time
// descents below it and for hier.
func (ix *Index[T]) FindBatch(queries []T, p int) (hits int) {
	return ix.findBatch(queries, nil, p)
}
