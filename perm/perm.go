// Package perm is the public API for the paper's contribution: parallel
// in-place permutation of a sorted array into the BST, B-tree, or van Emde
// Boas implicit search-tree layout.
//
// A typical keys-only use:
//
//	keys := loadSortedKeys()                       // []uint64, sorted
//	perm.Permute(keys, layout.VEB, perm.CycleLeader,
//	    perm.WithWorkers(runtime.NumCPU()))
//	idx := search.NewIndex(keys, layout.VEB, 0)    // query the layout
//
// For key–value records, PermuteWith moves a value slice by the exact
// same permutation as its keys — afterwards vals[i] is still the payload
// of keys[i] for every array position i, so a search hit's position
// indexes both slices:
//
//	perm.PermuteWith(keys, vals, layout.VEB, perm.CycleLeader)
//	if pos := idx.Find(q); pos >= 0 { use(vals[pos]) }
//
// Every permutation uses O(P log N) auxiliary space (the paper's
// Definition 1 of parallel in-place), works for any array length
// (Chapter 5), and is deterministic for every worker count. The vEB
// cycle-leader runs the paper's recursion down to perfect subtrees of
// 2^11-1 records and finishes each in one in-place cycle walk over a
// fixed rank table, which fits the L1 cache. For any length that is
// not a perfect tree, the Chapter 5 pre-pass separates the partial last
// level by block rotations rather than the paper's modular-inverse
// un-shuffle, and vEB carries that level at the front of each subtree
// down its recursion. The cost models behind cmd/paperbench run the
// paper's recursion all the way down and its pre-pass.
//
// This package is the paper's operation, kept as the thing its
// experiments measure (cmd/paperbench, perfbench's build workload). The
// store package builds the same arrays with layout.Write, which writes
// every record straight to its final position instead of permuting in
// place; the store's tests pin the two to identical output. The way
// back to sorted order, for arrays built either way, is layout.Read.
package perm

import (
	"fmt"

	"implicitlayout/internal/core"
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

// Algorithm selects one of the paper's two algorithm families.
type Algorithm int

const (
	// Involution composes the permutation from O(1) rounds of disjoint
	// swaps per tree level (Chapter 2): simplest and lowest depth, but
	// with scattered memory access.
	Involution Algorithm = iota
	// CycleLeader uses the equidistant gather machinery (Chapter 3):
	// more index arithmetic but far better spatial locality — the fastest
	// family on CPUs in the paper's measurements.
	CycleLeader
)

// String returns the conventional name of the algorithm family.
func (a Algorithm) String() string { return a.core().String() }

func (a Algorithm) core() core.Algorithm {
	switch a {
	case Involution:
		return core.Involution
	case CycleLeader:
		return core.CycleLeader
	}
	panic(fmt.Sprintf("perm: unknown algorithm %d", int(a)))
}

// Algorithms lists both families.
func Algorithms() []Algorithm { return []Algorithm{Involution, CycleLeader} }

// DefaultB is the default B-tree node capacity, layout.DefaultB.
const DefaultB = layout.DefaultB

type config struct {
	workers int
	b       int
}

// Option configures Permute and PermuteWith.
type Option func(*config)

// WithWorkers sets the number of parallel workers P (default 1; values
// below 1 select runtime.GOMAXPROCS(0)).
func WithWorkers(p int) Option { return func(c *config) { c.workers = p } }

// WithB sets the B-tree node capacity (default DefaultB). Ignored by the
// BST and vEB layouts.
func WithB(b int) Option { return func(c *config) { c.b = b } }

func (c config) options() core.Options {
	// par.New already maps workers < 1 to runtime.GOMAXPROCS(0), so the
	// runner is built exactly once.
	return core.Options{Runner: par.New(c.workers), B: c.b}
}

func buildConfig(opts []Option) config {
	c := config{workers: 1, b: DefaultB}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Permute rearranges data (which must be in ascending sorted order for the
// result to be a search tree) into layout k using algorithm a, in place.
func Permute[T any](data []T, k layout.Kind, a Algorithm, opts ...Option) {
	// By pointer: every kernel frame passes the backend on, and a pointer
	// is one word where a Slice is three (a Zip six).
	s := vec.Of(data)
	core.Permute[T](buildConfig(opts).options(), &s, k, a.core())
}
