// Package vec defines the memory abstraction that every permutation
// algorithm in this repository moves data through. Algorithms are generic
// over a Vec so that a single code base serves every backend:
//
//   - Slice and Zip: one bare slice, or a key slice and a value slice
//     moved as pairs, used by the public perm API;
//   - pem.Vec: the parallel-external-memory simulator, which counts block
//     transfers per processor (validates the I/O column of Table 1.1);
//   - gpu.Vec: the SIMT cost model, which charges memory transactions,
//     instructions and kernel launches (reproduces the GPU figures);
//   - trace.Vec: the operation counter behind the work column of
//     Table 1.1.
//
// Every mutation is expressed as a swap (or a block swap), which makes the
// in-place property of the algorithms structurally evident: no backend
// needs auxiliary element storage. The one exception is ApplyCycles, a
// fixed permutation of a small window applied by cycle walks (one saved
// element per cycle): the slice backends use it to finish small vEB
// cycle-leader subtrees in cache, and the model backends decline it, so
// the kernel runs the paper's recursion all the way down on them. Its
// answer also selects the kernels' Chapter 5 pre-pass: a backend that
// applies the empty walk gets the partial level separated by block
// rotations (and, for vEB, kept at the front of each subtree), one that
// declines gets the paper's J un-shuffle.
//
// A kernel is generic over V, and Go calls a method of a type parameter
// through the instantiation's dictionary: an indirect call that is never
// inlined, even on Slice. So Slice is not free per element; a swap costs
// a function call on top of its bounds checks. The rule that follows:
// the per-element methods (Get, Set, Swap) serve the model backends,
// cold paths and loops whose partner index is computed per element (the
// involution rounds); a loop over a run of units at fixed strides is one
// SwapUnits call, so the slice backends run it as a direct loop.
package vec

// Vec is the minimal memory interface the permutation kernels require. The
// p argument identifies the calling processor (worker); backends that model
// per-processor caches use it for accounting and the slice backend ignores
// it. Concurrent calls with distinct processors must only touch disjoint
// index sets (the CREW discipline of the paper's PRAM algorithms).
type Vec[T any] interface {
	// Len returns the number of elements.
	Len() int
	// Get returns the element at index i.
	Get(p, i int) T
	// Set stores x at index i.
	Set(p, i int, x T)
	// Swap exchanges the elements at i and j.
	Swap(p, i, j int)
	// SwapRange exchanges the n-element blocks starting at i and j.
	// The blocks must not overlap.
	SwapRange(p, i, j, n int)
	// SwapUnits exchanges n pairs of c-element units: for t = 0..n-1 in
	// order, the unit at i+t*di with the unit at j+t*dj. Strides may be
	// negative (a negative dj walks the second unit backwards, as in a
	// reversal) and all 2n units must be pairwise disjoint. It charges
	// exactly what the loop of Swap (c == 1) or SwapRange(…, c) (c > 1)
	// calls it stands for would charge.
	SwapUnits(p, i, di, j, dj, c, n int)
	// BeginRound records the start of one parallel primitive round (one
	// PRAM step of O(1) depth, or one GPU kernel launch) named name that
	// will touch approximately n elements. Cost-model backends accumulate
	// depth and launch overhead from it; the slice backend ignores it.
	// Methods on the interface (rather than optional extensions) keep the
	// hot path free of interface boxing.
	BeginRound(name string, n int)
	// AddInstr charges n model instructions to processor p, used by
	// backends that cost index arithmetic (digit reversals, modular
	// inverses). The slice backend ignores it.
	AddInstr(p, n int)
	// ApplyCycles permutes the window [off, off+c.N) by the cycle walks
	// of c and reports true, or reports false and touches nothing. The
	// slice backends apply it; the cost-model backends decline, so the
	// kernel runs its own swap-based steps and every modelled count
	// stays that of the paper's algorithm. The kernels also probe it
	// with the empty walk (N == 0) to pick their Chapter 5 pre-pass: the
	// rotation separation where it is applied, the paper's J un-shuffle
	// where it is declined. A backend answers every call the same way.
	ApplyCycles(p, off int, c *Cycles) bool
}

// Slice adapts a plain slice to the Vec interface. The processor argument
// is ignored. Its per-element methods cost an indirect call each when a
// kernel reaches them through a type parameter (see the package doc);
// SwapUnits is the direct loop.
type Slice[T any] struct{ S []T }

// Of wraps s in a Slice backend.
func Of[T any](s []T) Slice[T] { return Slice[T]{S: s} }

// Len returns the number of elements.
func (v Slice[T]) Len() int { return len(v.S) }

// Get returns the element at index i.
func (v Slice[T]) Get(_, i int) T { return v.S[i] }

// Set stores x at index i.
func (v Slice[T]) Set(_, i int, x T) { v.S[i] = x }

// Swap exchanges elements i and j.
func (v Slice[T]) Swap(_, i, j int) { v.S[i], v.S[j] = v.S[j], v.S[i] }

// SwapRange exchanges the non-overlapping blocks [i, i+n) and [j, j+n).
func (v Slice[T]) SwapRange(_, i, j, n int) { swapUnits(v.S, i, 0, j, 0, n, 1) }

// SwapUnits exchanges n unit pairs of c elements at strides di and dj.
func (v Slice[T]) SwapUnits(_, i, di, j, dj, c, n int) { swapUnits(v.S, i, di, j, dj, c, n) }

// swapUnits is the direct loop behind the slice backends' SwapUnits.
func swapUnits[T any](s []T, i, di, j, dj, c, n int) {
	if c == 1 {
		for ; n > 0; n-- {
			s[i], s[j] = s[j], s[i]
			i += di
			j += dj
		}
		return
	}
	for ; n > 0; n-- {
		a, b := s[i:i+c], s[j:j+c]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
		i += di
		j += dj
	}
}

// UnitSwapper is the part of a backend that SwapUnitsLoop runs on.
type UnitSwapper interface {
	Swap(p, i, j int)
	SwapRange(p, i, j, n int)
}

// SwapUnitsLoop is SwapUnits as the loop it stands for: Swap for c == 1,
// SwapRange(…, c) for c > 1, one unit pair at a time. The cost-model
// backends implement SwapUnits with it, so a run of units charges exactly
// what the per-unit calls would (the GPU model charges Swap and a
// one-element SwapRange differently).
func SwapUnitsLoop(v UnitSwapper, p, i, di, j, dj, c, n int) {
	for ; n > 0; n-- {
		if c == 1 {
			v.Swap(p, i, j)
		} else {
			v.SwapRange(p, i, j, c)
		}
		i += di
		j += dj
	}
}

// BeginRound is a no-op for the raw slice backend.
func (Slice[T]) BeginRound(string, int) {}

// AddInstr is a no-op for the raw slice backend.
func (Slice[T]) AddInstr(int, int) {}

// ApplyCycles runs the cycle walks of c over [off, off+c.N).
func (v Slice[T]) ApplyCycles(_, off int, c *Cycles) bool {
	applyCycles(v.S[off:], c)
	return true
}

// View restricts a Vec to the window [off, off+n), translating indices.
// Views compose; all backends keep their accounting because calls forward
// to the underlying Vec.
type View[T any, V Vec[T]] struct {
	Base V
	Off  int
	N    int
}

// Window returns a view of v covering [off, off+n).
func Window[T any, V Vec[T]](v V, off, n int) View[T, V] {
	if off < 0 || n < 0 || off+n > v.Len() {
		panic("vec: window out of range")
	}
	return View[T, V]{Base: v, Off: off, N: n}
}

// Len returns the window length.
func (w View[T, V]) Len() int { return w.N }

// Get returns the element at window index i.
func (w View[T, V]) Get(p, i int) T { return w.Base.Get(p, w.Off+i) }

// Set stores x at window index i.
func (w View[T, V]) Set(p, i int, x T) { w.Base.Set(p, w.Off+i, x) }

// Swap exchanges window indices i and j.
func (w View[T, V]) Swap(p, i, j int) { w.Base.Swap(p, w.Off+i, w.Off+j) }

// SwapRange exchanges the window blocks [i, i+n) and [j, j+n).
func (w View[T, V]) SwapRange(p, i, j, n int) { w.Base.SwapRange(p, w.Off+i, w.Off+j, n) }

// SwapUnits exchanges window unit pairs through one call to the base.
func (w View[T, V]) SwapUnits(p, i, di, j, dj, c, n int) {
	w.Base.SwapUnits(p, w.Off+i, di, w.Off+j, dj, c, n)
}

// BeginRound forwards round tracking to the base backend.
func (w View[T, V]) BeginRound(name string, n int) { w.Base.BeginRound(name, n) }

// AddInstr forwards instruction accounting to the base backend.
func (w View[T, V]) AddInstr(p, n int) { w.Base.AddInstr(p, n) }

// ApplyCycles forwards the window's cycle walks to the base backend.
func (w View[T, V]) ApplyCycles(p, off int, c *Cycles) bool {
	return w.Base.ApplyCycles(p, w.Off+off, c)
}
