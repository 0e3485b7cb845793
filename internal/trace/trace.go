// Package trace provides a counting memory backend: it executes a
// permutation algorithm on a real slice while tallying, per processor, the
// number of element swaps, block-swap elements, reads, writes, model
// instructions and primitive rounds. The counters empirically validate the
// work column of Table 1.1 (total operations must track the closed forms
// O(N), O(N log N), O(N log log N), ...) and feed the experiment harness.
package trace

import (
	"sync/atomic"

	"implicitlayout/internal/vec"
)

// pad separates per-processor counters onto distinct cache lines.
type counters struct {
	swaps  int64
	ranged int64 // elements moved through SwapRange
	gets   int64
	sets   int64
	instr  int64
	_      [3]int64
}

// Vec wraps a slice and counts every access. Use one Vec per measurement;
// processors must follow the CREW discipline (distinct p for concurrent
// calls), as everywhere else in this repository.
type Vec[T any] struct {
	Data   []T
	pc     []counters
	rounds atomic.Int64
}

// New returns a counting backend over data for up to p processors.
func New[T any](data []T, p int) *Vec[T] {
	if p < 1 {
		p = 1
	}
	return &Vec[T]{Data: data, pc: make([]counters, p)}
}

// Len returns the number of elements.
func (v *Vec[T]) Len() int { return len(v.Data) }

// Get returns the element at index i.
func (v *Vec[T]) Get(p, i int) T {
	v.pc[p].gets++
	return v.Data[i]
}

// Set stores x at index i.
func (v *Vec[T]) Set(p, i int, x T) {
	v.pc[p].sets++
	v.Data[i] = x
}

// Swap exchanges elements i and j.
func (v *Vec[T]) Swap(p, i, j int) {
	v.pc[p].swaps++
	v.Data[i], v.Data[j] = v.Data[j], v.Data[i]
}

// SwapRange exchanges the non-overlapping blocks [i, i+n) and [j, j+n).
func (v *Vec[T]) SwapRange(p, i, j, n int) {
	v.pc[p].ranged += int64(n)
	a, b := v.Data[i:i+n], v.Data[j:j+n]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// SwapUnits exchanges n unit pairs of c elements at strides di and dj,
// charging each unit pair as its own Swap or SwapRange.
func (v *Vec[T]) SwapUnits(p, i, di, j, dj, c, n int) {
	vec.SwapUnitsLoop(v, p, i, di, j, dj, c, n)
}

// ApplyCycles declines: the kernel runs the paper's swap-based steps,
// which are what this model charges.
func (v *Vec[T]) ApplyCycles(int, int, *vec.Cycles) bool { return false }

// BeginRound counts one primitive round (may be called concurrently from
// independent subtree tasks).
func (v *Vec[T]) BeginRound(string, int) { v.rounds.Add(1) }

// AddInstr charges n model instructions to processor p.
func (v *Vec[T]) AddInstr(p, n int) { v.pc[p].instr += int64(n) }

// Swaps returns the total number of element swaps, counting each
// block-swapped element as one swap.
func (v *Vec[T]) Swaps() int64 {
	var t int64
	for i := range v.pc {
		t += v.pc[i].swaps + v.pc[i].ranged
	}
	return t
}

// Work returns the total number of element operations: swaps (weighted by
// the two elements they move) plus reads and writes.
func (v *Vec[T]) Work() int64 {
	var t int64
	for i := range v.pc {
		t += 2*(v.pc[i].swaps+v.pc[i].ranged) + v.pc[i].gets + v.pc[i].sets
	}
	return t
}

// Instr returns the total model instruction count charged by the index
// arithmetic (digit reversals, modular inverses).
func (v *Vec[T]) Instr() int64 {
	var t int64
	for i := range v.pc {
		t += v.pc[i].instr
	}
	return t
}

// MaxWork returns the largest per-processor operation count: the load of
// the busiest processor, whose ratio to Work()/P measures balance.
func (v *Vec[T]) MaxWork() int64 {
	var m int64
	for i := range v.pc {
		w := 2*(v.pc[i].swaps+v.pc[i].ranged) + v.pc[i].gets + v.pc[i].sets
		if w > m {
			m = w
		}
	}
	return m
}

// Rounds returns the number of primitive rounds issued.
func (v *Vec[T]) Rounds() int64 { return v.rounds.Load() }

// Reset clears all counters.
func (v *Vec[T]) Reset() {
	for i := range v.pc {
		v.pc[i] = counters{}
	}
	v.rounds.Store(0)
}
