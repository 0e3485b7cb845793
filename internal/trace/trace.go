// Package trace provides the counting memory backend behind every cost
// model of this repository: it executes a permutation algorithm on a real
// slice while tallying, per processor, the number of element swaps,
// block-swap elements, reads, writes, model instructions and primitive
// rounds. The counters empirically validate the work column of Table 1.1
// (total operations must track the closed forms O(N), O(N log N),
// O(N log log N), ...) and feed the experiment harness.
//
// A Vec may also charge every access to a Cache: the PEM simulator
// (internal/pem) and the GPU model (internal/gpu) are two such caches,
// two memory levels watching the one access sequence a Vec sees.
package trace

import (
	"sync/atomic"

	"implicitlayout/internal/vec"
)

// Cache is a memory-level model that a Vec charges its accesses to.
// Concurrent calls come from distinct processors (the CREW discipline),
// so a Cache keeps its state per processor.
type Cache interface {
	// Touch charges processor p's access to element i (one Get or Set,
	// or one side of a Swap).
	Touch(p, i int)
	// TouchPair charges processor p's swap of the n-element blocks at
	// i and j (one SwapRange).
	TouchPair(p, i, j, n int)
}

// counters are one processor's operation counts, padded onto their own
// cache line.
type counters struct {
	swaps  int64
	ranged int64 // elements moved through SwapRange
	gets   int64
	sets   int64
	instr  int64
	_      [3]int64
}

// Counts is the total of each operation count across processors.
type Counts struct {
	Swaps  int64 // Swap calls
	Ranged int64 // elements moved through SwapRange
	Gets   int64
	Sets   int64
	Instr  int64 // model instructions charged through AddInstr
}

// Vec wraps a slice and counts every access. Use one Vec per measurement;
// processors must follow the CREW discipline (distinct p for concurrent
// calls), as everywhere else in this repository.
type Vec[T any] struct {
	Data   []T
	pc     []counters
	cache  Cache
	rounds atomic.Int64
}

// New returns a counting backend over data for up to p processors.
func New[T any](data []T, p int) *Vec[T] { return NewCached(data, p, nil) }

// NewCached returns a counting backend over data for up to p processors
// that also charges every access to c (none when c is nil).
func NewCached[T any](data []T, p int, c Cache) *Vec[T] {
	if p < 1 {
		p = 1
	}
	return &Vec[T]{Data: data, pc: make([]counters, p), cache: c}
}

// Len returns the number of elements.
func (v *Vec[T]) Len() int { return len(v.Data) }

// Get returns the element at index i.
func (v *Vec[T]) Get(p, i int) T {
	v.pc[p].gets++
	if v.cache != nil {
		v.cache.Touch(p, i)
	}
	return v.Data[i]
}

// Set stores x at index i.
func (v *Vec[T]) Set(p, i int, x T) {
	v.pc[p].sets++
	if v.cache != nil {
		v.cache.Touch(p, i)
	}
	v.Data[i] = x
}

// Swap exchanges elements i and j.
func (v *Vec[T]) Swap(p, i, j int) {
	v.pc[p].swaps++
	if v.cache != nil {
		v.cache.Touch(p, i)
		v.cache.Touch(p, j)
	}
	v.Data[i], v.Data[j] = v.Data[j], v.Data[i]
}

// SwapRange exchanges the non-overlapping blocks [i, i+n) and [j, j+n).
func (v *Vec[T]) SwapRange(p, i, j, n int) {
	v.pc[p].ranged += int64(n)
	if v.cache != nil {
		v.cache.TouchPair(p, i, j, n)
	}
	a, b := v.Data[i:i+n], v.Data[j:j+n]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// SwapUnits exchanges n unit pairs of c elements at strides di and dj as
// the loop it stands for: Swap for c == 1, SwapRange(…, c) for c > 1, one
// unit pair at a time. So a run of units charges exactly what the
// per-unit calls would, to the counters and to the cache.
func (v *Vec[T]) SwapUnits(p, i, di, j, dj, c, n int) {
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

// ApplyCycles declines: the kernel runs the paper's swap-based steps,
// which are what the models charge.
func (v *Vec[T]) ApplyCycles(int, int, *vec.Cycles) bool { return false }

// BeginRound counts one primitive round (may be called concurrently from
// independent subtree tasks).
func (v *Vec[T]) BeginRound(string, int) { v.rounds.Add(1) }

// AddInstr charges n model instructions to processor p.
func (v *Vec[T]) AddInstr(p, n int) { v.pc[p].instr += int64(n) }

// Counts returns the operation counts summed over processors.
func (v *Vec[T]) Counts() Counts {
	var t Counts
	for i := range v.pc {
		c := &v.pc[i]
		t.Swaps += c.swaps
		t.Ranged += c.ranged
		t.Gets += c.gets
		t.Sets += c.sets
		t.Instr += c.instr
	}
	return t
}

// Swaps returns the total number of element swaps, counting each
// block-swapped element as one swap.
func (v *Vec[T]) Swaps() int64 {
	t := v.Counts()
	return t.Swaps + t.Ranged
}

// Work returns the total number of element operations: swaps (weighted by
// the two elements they move) plus reads and writes.
func (v *Vec[T]) Work() int64 {
	t := v.Counts()
	return 2*(t.Swaps+t.Ranged) + t.Gets + t.Sets
}

// Instr returns the total model instruction count charged by the index
// arithmetic (digit reversals, modular inverses).
func (v *Vec[T]) Instr() int64 { return v.Counts().Instr }

// MaxWork returns the largest per-processor operation count: the load of
// the busiest processor, whose ratio to Work()/P measures balance.
func (v *Vec[T]) MaxWork() int64 {
	var m int64
	for i := range v.pc {
		c := &v.pc[i]
		m = max(m, 2*(c.swaps+c.ranged)+c.gets+c.sets)
	}
	return m
}

// Rounds returns the number of primitive rounds issued.
func (v *Vec[T]) Rounds() int64 { return v.rounds.Load() }

// Reset clears all operation counters; a cache resets itself.
func (v *Vec[T]) Reset() {
	clear(v.pc)
	v.rounds.Store(0)
}
