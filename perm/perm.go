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
// Unpermute and UnpermuteWith invert the layouts back to sorted order,
// also in place. Every permutation uses O(P log N) auxiliary space (the
// paper's Definition 1 of parallel in-place), works for any array length
// (Chapter 5), and is deterministic for every worker count. The store
// package's build pipeline — including every flush and compaction of its
// writable DB — is a client of exactly these entry points.
package perm

import (
	"fmt"

	"implicitlayout/internal/bits"
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

// DefaultB is the default B-tree node capacity: 8 keys of 8 bytes fill one
// 64-byte cache line, the configuration the paper benchmarks on CPUs.
const DefaultB = 8

type config struct {
	workers     int
	b           int
	softwareRev bool
	transposed  bool
	gatherBatch int
}

// Option configures Permute and Unpermute.
type Option func(*config)

// WithWorkers sets the number of parallel workers P (default 1; values
// below 1 select runtime.GOMAXPROCS(0)).
func WithWorkers(p int) Option { return func(c *config) { c.workers = p } }

// WithB sets the B-tree node capacity (default DefaultB). Ignored by the
// BST and vEB layouts.
func WithB(b int) Option { return func(c *config) { c.b = b } }

// WithSoftwareBitReversal makes the BST involution algorithm reverse bits
// with an O(log N) software loop instead of the O(1) hardware-style
// primitive, reproducing the paper's T_REV2 distinction between its CPU
// (software) and GPU (hardware) platforms.
func WithSoftwareBitReversal() Option { return func(c *config) { c.softwareRev = true } }

// WithTransposedGather enables the matrix-transposition I/O optimization
// of Section 4.2 in the vEB cycle-leader algorithm.
func WithTransposedGather() Option { return func(c *config) { c.transposed = true } }

// WithBatchedGather makes the vEB cycle-leader algorithm process gather
// cycles in batches of the given size per worker — the lighter-weight I/O
// optimization of Section 4.2 ("assign each processor a group of O(B)
// cycles"). Sensible values match the cache line size in elements (8 for
// 64-bit keys on 64-byte lines).
func WithBatchedGather(batch int) Option { return func(c *config) { c.gatherBatch = batch } }

func (c config) options() core.Options {
	// par.New already maps workers < 1 to runtime.GOMAXPROCS(0), so the
	// runner is built exactly once.
	o := core.Options{
		Runner:           par.New(c.workers),
		B:                c.b,
		TransposedGather: c.transposed,
		GatherBatch:      c.gatherBatch,
	}
	if c.softwareRev {
		o.Rev = bits.Software{}
	}
	return o
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
	core.Permute[T](buildConfig(opts).options(), vec.Of(data), k, a.core())
}

// Unpermute restores ascending sorted order from a layout previously
// produced by Permute (with the same B for B-tree layouts), in place and
// in parallel, for every layout.
//
// Inversion is always involution-based, whichever Algorithm built the
// layout: Involution and CycleLeader realize the identical permutation
// (they differ only in how the swaps are scheduled), and running the
// involution rounds in reverse order inverts it with the lowest depth.
// Unpermute therefore needs only the layout kind and B — an Algorithm
// choice would be meaningless here, so none is accepted.
func Unpermute[T any](data []T, k layout.Kind, opts ...Option) error {
	return core.Unpermute[T](buildConfig(opts).options(), vec.Of(data), k)
}
