// Package shuffle implements the parallel in-place data-movement
// primitives every permutation algorithm in this repository is composed
// of:
//
//   - application of an involution as one round of disjoint swaps;
//   - reversals and circular shifts (rotations) of unit sequences, where a
//     unit is a contiguous chunk of c elements placed at a fixed stride —
//     this single generalization covers plain ranges, the strided cycles
//     of the equidistant gather, and the chunked (block) variants that
//     make the cycle-leader algorithms I/O-efficient (Chapter 4);
//   - k-way perfect shuffles and un-shuffles, via the digit-reversal
//     involutions Ξ₁ for sizes k^d and the modular-inverse involutions
//     Ξ₂ = J_k ∘ J_1 for any size divisible by k (Yang et al.), plus the
//     1-indexed variants (phantom fixed index 0) used by the B-tree and
//     vEB algorithms on arrays of k^d − 1 elements.
//
// Rotations use the two-round reversal identity, so every primitive moves
// data exclusively through swaps: O(1) auxiliary space per worker.
package shuffle

import (
	"fmt"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/numth"
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
)

// InvMap is an index involution f with f(f(i)) == i. Implementations are
// small value types so that involution rounds dispatch statically and
// allocate nothing — the recursive vEB algorithms apply one round per
// subtree, so a per-round closure would make them non-in-place.
type InvMap interface {
	// Map returns f(i).
	Map(i uint64) uint64
}

// JMap is the modular-inverse involution J_R over {0..M} (Yang et al.).
type JMap struct{ R, M uint64 }

// Map returns J_R(i).
func (m JMap) Map(i uint64) uint64 { return numth.J(m.R, i, m.M) }

// RevKMap reverses the B least significant base-K digits of the index.
type RevKMap struct {
	K uint64
	B int
}

// Map returns rev_K(B, i).
func (m RevKMap) Map(i uint64) uint64 { return bits.RevK(m.K, m.B, i) }

// ApplyInvolution performs one parallel round of swaps realizing the
// involution f on the window [lo, lo+n) of v: element lo+i is exchanged
// with lo+f(i). f must satisfy f(i) < n for all i < n. cost is the model
// cost (instruction count) of one evaluation of f, forwarded to
// cost-tracking backends.
func ApplyInvolution[T any, F InvMap, V vec.Vec[T]](r par.Runner, v V, lo, n int, cost int, f F) {
	v.BeginRound("involution", n)
	if r.IsSerial() {
		applyInvSeq[T](v, r.Lo, lo, 0, n, cost, f)
		return
	}
	r.For(n, func(p, a, b int) {
		applyInvSeq[T](v, p, lo, a, b, cost, f)
	})
}

func applyInvSeq[T any, F InvMap, V vec.Vec[T]](v V, p, lo, a, b, cost int, f F) {
	v.AddInstr(p, (b-a)*cost)
	for i := a; i < b; i++ {
		j := int(f.Map(uint64(i)))
		if j > i {
			v.Swap(p, lo+i, lo+j)
		}
	}
}

// ReverseUnits reverses the order of m units, where unit t occupies the c
// contiguous elements starting at base + t*stride. Unit contents are
// preserved (units are swapped whole), which is what makes chunked
// rotations I/O-efficient. It is one parallel round of block swaps.
func ReverseUnits[T any, V vec.Vec[T]](r par.Runner, v V, base, stride, m, c int) {
	if m < 2 {
		return
	}
	v.BeginRound("reverse", m*c)
	half := m / 2
	if r.IsSerial() {
		reverseUnitsSeq[T](v, r.Lo, base, stride, m, c, 0, half)
		return
	}
	r.For(half, func(p, a, b int) {
		reverseUnitsSeq[T](v, p, base, stride, m, c, a, b)
	})
}

// reverseUnitsSeq swaps unit t with unit m-1-t for t in [a, b): one
// backend call, walking the front units forward and the back ones
// backward.
func reverseUnitsSeq[T any, V vec.Vec[T]](v V, p, base, stride, m, c, a, b int) {
	v.SwapUnits(p, base+a*stride, stride, base+(m-1-a)*stride, -stride, c, b-a)
}

// RotateRightUnits circularly shifts the contents of m units right by s
// positions: the content of unit t moves to unit (t+s) mod m. Unit t
// occupies c contiguous elements at base + t*stride. Implemented as the
// classical three reversals (two parallel rounds of swaps), it uses O(1)
// space per worker.
func RotateRightUnits[T any, V vec.Vec[T]](r par.Runner, v V, base, stride, m, c, s int) {
	if m < 2 {
		return
	}
	s %= m
	if s < 0 {
		s += m
	}
	if s == 0 {
		return
	}
	// rotate right by s == reverse whole; reverse first s; reverse rest.
	ReverseUnits[T](r, v, base, stride, m, c)
	if r.P() > 1 && s > 1 && m-s > 1 {
		r.Do(
			func(sub par.Runner) { ReverseUnits[T](sub, v, base, stride, s, c) },
			func(sub par.Runner) { ReverseUnits[T](sub, v, base+s*stride, stride, m-s, c) },
		)
		return
	}
	ReverseUnits[T](r, v, base, stride, s, c)
	ReverseUnits[T](r, v, base+s*stride, stride, m-s, c)
}

// Reverse reverses v[lo : lo+n) in one parallel round.
func Reverse[T any, V vec.Vec[T]](r par.Runner, v V, lo, n int) {
	ReverseUnits[T](r, v, lo, 1, n, 1)
}

// RotateRight circularly shifts v[lo : lo+n) right by s positions.
func RotateRight[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, s int) {
	RotateRightUnits[T](r, v, lo, 1, n, 1, s)
}

// SwapBlocks exchanges the non-overlapping n-element blocks at i and j,
// split across workers (one parallel round). It is the baseline operation
// the paper compares the chunked equidistant gather against (Figure 6.4).
func SwapBlocks[T any, V vec.Vec[T]](r par.Runner, v V, i, j, n int) {
	if n <= 0 {
		return
	}
	v.BeginRound("swapblocks", 2*n)
	if r.IsSerial() {
		v.SwapRange(r.Lo, i, j, n)
		return
	}
	r.For(n, func(p, a, b int) {
		v.SwapRange(p, i+a, j+a, b-a)
	})
}

// RotateLeft circularly shifts v[lo : lo+n) left by s positions.
func RotateLeft[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, s int) {
	if n < 2 {
		return
	}
	s %= n
	if s < 0 {
		s += n
	}
	RotateRightUnits[T](r, v, lo, 1, n, 1, n-s)
}

// costs of evaluating the index maps, in model instructions. The J
// involution runs the extended Euclidean algorithm, hence the log factor
// that shows up in the involution B-tree row of Table 1.1. Digit reversal
// costs are per digit in software; hardware base-2 reversal is O(1).
const (
	costSwapBase = 4
	costPerDigit = 6
)

func costRev(k uint64, d int) int {
	if k == 2 {
		return costSwapBase + 2 // modelled as hardware/table reversal
	}
	return costSwapBase + costPerDigit*d
}

func costJ(n int) int {
	// gcd + extended Euclid, both O(log n) iterations.
	return costSwapBase + 3*logCeil(n)
}

func logCeil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// KShuffle performs the k-way perfect shuffle of v[lo : lo+n): the
// deck-major input (k decks of n/k elements each) becomes interleaved.
// Element i moves to position k*i mod (n-1), with n-1 fixed. n must be a
// positive multiple of k. Two involution rounds (Ξ₂ = J_k ∘ J_1).
func KShuffle[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, k int) {
	checkDeck(n, k)
	if n <= k || k == 1 { // a single deck or single-element decks: identity
		return
	}
	m := uint64(n - 1)
	cost := costJ(n)
	ApplyInvolution[T](r, v, lo, n, cost, JMap{R: 1, M: m})
	ApplyInvolution[T](r, v, lo, n, cost, JMap{R: uint64(k), M: m})
}

// KUnshuffle performs the k-way perfect un-shuffle of v[lo : lo+n): the
// interleaved input is separated into k contiguous decks; element i moves
// to position (n/k)*i mod (n-1). n must be a positive multiple of k.
func KUnshuffle[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, k int) {
	checkDeck(n, k)
	if n <= k || k == 1 {
		return
	}
	m := uint64(n - 1)
	cost := costJ(n)
	ApplyInvolution[T](r, v, lo, n, cost, JMap{R: uint64(k), M: m})
	ApplyInvolution[T](r, v, lo, n, cost, JMap{R: 1, M: m})
}

// KShufflePow performs the k-way perfect shuffle of v[lo : lo+n) for
// n = k^d, using the digit-reversal involutions Ξ₁: the shuffle is the
// left rotation of base-k digits, realized as rev_k(d-1) then rev_k(d).
func KShufflePow[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, k, d int) {
	checkPow(n, k, d)
	if d < 2 {
		return
	}
	ku := uint64(k)
	ApplyInvolution[T](r, v, lo, n, costRev(ku, d-1), RevKMap{K: ku, B: d - 1})
	ApplyInvolution[T](r, v, lo, n, costRev(ku, d), RevKMap{K: ku, B: d})
}

// KUnshufflePow performs the k-way perfect un-shuffle of v[lo : lo+n) for
// n = k^d: the right rotation of base-k digits, rev_k(d) then rev_k(d-1).
func KUnshufflePow[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, k, d int) {
	checkPow(n, k, d)
	if d < 2 {
		return
	}
	ku := uint64(k)
	ApplyInvolution[T](r, v, lo, n, costRev(ku, d), RevKMap{K: ku, B: d})
	ApplyInvolution[T](r, v, lo, n, costRev(ku, d-1), RevKMap{K: ku, B: d - 1})
}

// KUnshuffle1 performs the k-way perfect un-shuffle with simulated
// 1-indexing on v[lo : lo+n): the permutation acts on the index set
// {0, ..., n} with the phantom index 0 fixed, so array position q holds
// 1-indexed element q+1. Every (k)-th element (1-indexed positions k, 2k,
// ...) gathers, in order, to the front; the remaining elements gather into
// k-1 residue-class decks. n+1 must be a multiple of k. The digit-reversal
// path is used when n+1 is a power of k, the J path otherwise.
func KUnshuffle1[T any, V vec.Vec[T]](r par.Runner, v V, lo, n, k int) {
	dom := n + 1
	checkDeck(dom, k)
	if k == 1 || dom <= k {
		return
	}
	ku := uint64(k)
	if d, ok := bits.PerfectKTreeExp(ku, n); ok {
		// domain k^d: right digit rotation via Ξ₁.
		if d < 2 {
			return
		}
		ApplyInvolution1[T](r, v, lo, n, costRev(ku, d), RevKMap{K: ku, B: d})
		ApplyInvolution1[T](r, v, lo, n, costRev(ku, d-1), RevKMap{K: ku, B: d - 1})
		return
	}
	m := uint64(dom - 1)
	cost := costJ(dom)
	ApplyInvolution1[T](r, v, lo, n, cost, JMap{R: ku, M: m})
	ApplyInvolution1[T](r, v, lo, n, cost, JMap{R: 1, M: m})
}

// ApplyInvolution1 applies involution f over the 1-indexed domain
// {0, ..., n} (index 0 phantom and necessarily fixed by f) to the array
// window [lo, lo+n): array slot q corresponds to domain index q+1.
func ApplyInvolution1[T any, F InvMap, V vec.Vec[T]](r par.Runner, v V, lo, n int, cost int, f F) {
	v.BeginRound("involution1", n)
	if r.IsSerial() {
		applyInv1Seq[T](v, r.Lo, lo, 0, n, cost, f)
		return
	}
	r.For(n, func(p, a, b int) {
		applyInv1Seq[T](v, p, lo, a, b, cost, f)
	})
}

func applyInv1Seq[T any, F InvMap, V vec.Vec[T]](v V, p, lo, a, b, cost int, f F) {
	v.AddInstr(p, (b-a)*cost)
	for q := a; q < b; q++ {
		j := int(f.Map(uint64(q + 1)))
		if j > q+1 {
			v.Swap(p, lo+q, lo+j-1)
		}
	}
}

func checkDeck(n, k int) {
	if k < 1 || n < 0 || (k > 0 && n%k != 0) {
		panic(fmt.Sprintf("shuffle: length %d is not a multiple of k=%d", n, k))
	}
}

func checkPow(n, k, d int) {
	if bits.Pow(k, d) != n {
		panic(fmt.Sprintf("shuffle: length %d is not %d^%d", n, k, d))
	}
}
