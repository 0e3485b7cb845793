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

import "implicitlayout/internal/trace"

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
// doubly-linked order, preallocated to its capacity. It is one
// processor's cache, and counts that processor's block transfers.
type lruCache struct {
	ios   int64 // misses: block transfers
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
	return &lruCache{
		cap:   capacity,
		slots: make(map[int]int, capacity),
		block: make([]int, capacity),
		prev:  make([]int, capacity),
		next:  make([]int, capacity),
		head:  -1,
		tail:  -1,
	}
}

// touch probes the cache for block b; a miss counts one block transfer
// and inserts b, evicting the least recent block when the cache is full.
func (c *lruCache) touch(b int) {
	if n, ok := c.slots[b]; ok {
		c.moveToFront(n)
		return
	}
	c.ios++
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

// caches is the trace.Cache of the PEM model: one LRU of M/B blocks per
// processor, counting a block transfer on every miss.
type caches struct {
	cfg   Config
	procs []*lruCache
}

func (c *caches) reset() {
	for i := range c.procs {
		c.procs[i] = newLRU(c.cfg.M / c.cfg.B)
	}
}

// Touch charges the block holding element i to processor p.
func (c *caches) Touch(p, i int) { c.touchBlocks(p, i, 1) }

// TouchPair charges the blocks of range i, then those of range j.
func (c *caches) TouchPair(p, i, j, n int) {
	c.touchBlocks(p, i, n)
	c.touchBlocks(p, j, n)
}

// touchBlocks charges every block of [i, i+n) to processor p, in order.
func (c *caches) touchBlocks(p, i, n int) {
	lru := c.procs[p]
	for b := i / c.cfg.B; b <= (i+n-1)/c.cfg.B; b++ {
		lru.touch(b)
	}
}

// Vec is the PEM-counting memory backend: a trace.Vec whose accesses are
// charged to the simulated caches. Concurrent use requires the CREW
// discipline: concurrent calls must use distinct processor ids.
type Vec[T any] struct {
	*trace.Vec[T]
	caches *caches
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
	c := &caches{cfg: cfg, procs: make([]*lruCache, p)}
	c.reset()
	return &Vec[T]{Vec: trace.NewCached(data, p, c), caches: c}
}

// MaxIO returns Q(N, P): the largest number of block transfers performed
// by any one processor.
func (v *Vec[T]) MaxIO() int64 {
	var m int64
	for _, c := range v.caches.procs {
		m = max(m, c.ios)
	}
	return m
}

// TotalIO returns the total number of block transfers across processors.
func (v *Vec[T]) TotalIO() int64 {
	var t int64
	for _, c := range v.caches.procs {
		t += c.ios
	}
	return t
}

// Config returns the simulated hierarchy parameters.
func (v *Vec[T]) Config() Config { return v.caches.cfg }

// Reset clears the counters and empties every cache.
func (v *Vec[T]) Reset() {
	v.Vec.Reset()
	v.caches.reset()
}
