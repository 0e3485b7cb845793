// Package pem simulates the Parallel External Memory model of Arge et al.
// — the machine model of the paper's I/O analysis (Chapter 4). Each of P
// processors owns a private fully-associative LRU cache of M words filled
// in blocks of B words from a shared external memory. Every element access
// of a permutation algorithm run on a pem.Vec is translated into cache
// probes, and cache misses are counted as block transfers (I/Os) per
// processor. The parallel I/O complexity Q(N, P) — the maximum number of
// transfers by any one processor — is the quantity bounded in Table 1.1,
// and cmd/paperbench's table1.1 experiment compares the measured values
// against those bounds.
package pem

import (
	"sync/atomic"

	"implicitlayout/internal/vec"
)

// Config sizes the simulated memory hierarchy, in words (elements).
type Config struct {
	// M is the internal-memory (cache) capacity per processor, in words.
	M int
	// B is the block (cache line) size, in words.
	B int
}

// DefaultConfig models a 256 KiB private cache with 64-byte lines holding
// 8-byte words: M = 32768 words, B = 8 words.
func DefaultConfig() Config { return Config{M: 1 << 15, B: 8} }

// lruCache is a fully associative LRU set of block indices with intrusive
// doubly-linked order, preallocated to its capacity.
type lruCache struct {
	cap   int
	slots map[int]int // block -> node index
	block []int
	prev  []int
	next  []int
	head  int // most recent
	tail  int // least recent
	used  int
}

func newLRU(capacity int) *lruCache {
	c := &lruCache{
		cap:   capacity,
		slots: make(map[int]int, capacity),
		block: make([]int, capacity),
		prev:  make([]int, capacity),
		next:  make([]int, capacity),
		head:  -1,
		tail:  -1,
	}
	return c
}

// touch probes the cache for block b and returns true on hit, inserting
// and possibly evicting on miss.
func (c *lruCache) touch(b int) bool {
	if n, ok := c.slots[b]; ok {
		c.moveToFront(n)
		return true
	}
	var n int
	if c.used < c.cap {
		n = c.used
		c.used++
	} else {
		n = c.tail
		delete(c.slots, c.block[n])
		c.detach(n)
	}
	c.block[n] = b
	c.slots[b] = n
	c.attachFront(n)
	return false
}

func (c *lruCache) moveToFront(n int) {
	if c.head == n {
		return
	}
	c.detach(n)
	c.attachFront(n)
}

func (c *lruCache) detach(n int) {
	if c.prev[n] >= 0 {
		c.next[c.prev[n]] = c.next[n]
	}
	if c.next[n] >= 0 {
		c.prev[c.next[n]] = c.prev[n]
	}
	if c.head == n {
		c.head = c.next[n]
	}
	if c.tail == n {
		c.tail = c.prev[n]
	}
}

func (c *lruCache) attachFront(n int) {
	c.prev[n] = -1
	c.next[n] = c.head
	if c.head >= 0 {
		c.prev[c.head] = n
	}
	c.head = n
	if c.tail < 0 {
		c.tail = n
	}
}

type procState struct {
	cache *lruCache
	ios   int64
	_     [7]int64
}

// Vec is the PEM-counting memory backend. Concurrent use requires the
// CREW discipline: concurrent calls must use distinct processor ids.
type Vec[T any] struct {
	Data   []T
	cfg    Config
	procs  []procState
	rounds atomic.Int64
}

// New wraps data in a PEM simulation with p processors and the given
// cache configuration.
func New[T any](data []T, p int, cfg Config) *Vec[T] {
	if p < 1 {
		p = 1
	}
	if cfg.B < 1 || cfg.M < 2*cfg.B {
		panic("pem: need B >= 1 and M >= 2B")
	}
	v := &Vec[T]{Data: data, cfg: cfg, procs: make([]procState, p)}
	for i := range v.procs {
		v.procs[i].cache = newLRU(cfg.M / cfg.B)
	}
	return v
}

func (v *Vec[T]) access(p, i int) {
	st := &v.procs[p]
	if !st.cache.touch(i / v.cfg.B) {
		st.ios++
	}
}

func (v *Vec[T]) accessRange(p, i, n int) {
	first := i / v.cfg.B
	last := (i + n - 1) / v.cfg.B
	st := &v.procs[p]
	for b := first; b <= last; b++ {
		if !st.cache.touch(b) {
			st.ios++
		}
	}
}

// Len returns the number of elements.
func (v *Vec[T]) Len() int { return len(v.Data) }

// Get returns the element at i, charging its block access to processor p.
func (v *Vec[T]) Get(p, i int) T {
	v.access(p, i)
	return v.Data[i]
}

// Set stores x at i, charging its block access to processor p.
func (v *Vec[T]) Set(p, i int, x T) {
	v.access(p, i)
	v.Data[i] = x
}

// Swap exchanges elements i and j, charging both block accesses.
func (v *Vec[T]) Swap(p, i, j int) {
	v.access(p, i)
	v.access(p, j)
	v.Data[i], v.Data[j] = v.Data[j], v.Data[i]
}

// SwapRange exchanges the blocks [i, i+n) and [j, j+n), charging the
// touched cache blocks of both ranges.
func (v *Vec[T]) SwapRange(p, i, j, n int) {
	v.accessRange(p, i, n)
	v.accessRange(p, j, n)
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

// BeginRound counts primitive rounds (informational).
func (v *Vec[T]) BeginRound(string, int) { v.rounds.Add(1) }

// AddInstr is ignored: the PEM model counts only block transfers.
func (v *Vec[T]) AddInstr(int, int) {}

// MaxIO returns Q(N, P): the largest number of block transfers performed
// by any one processor.
func (v *Vec[T]) MaxIO() int64 {
	var m int64
	for i := range v.procs {
		if v.procs[i].ios > m {
			m = v.procs[i].ios
		}
	}
	return m
}

// TotalIO returns the total number of block transfers across processors.
func (v *Vec[T]) TotalIO() int64 {
	var t int64
	for i := range v.procs {
		t += v.procs[i].ios
	}
	return t
}

// Config returns the simulated hierarchy parameters.
func (v *Vec[T]) Config() Config { return v.cfg }

// Reset clears the I/O counters and empties every cache.
func (v *Vec[T]) Reset() {
	for i := range v.procs {
		v.procs[i].ios = 0
		v.procs[i].cache = newLRU(v.cfg.M / v.cfg.B)
	}
	v.rounds.Store(0)
}
