package search

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"

	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// This file holds the batched, interleaved search kernels (software
// AMAC): each kernel advances a ring of in-flight query state machines,
// one tree step per machine per rotation, issuing the next node's load
// before rotating away. By the time the ring comes back around, the
// line is resident, so one query's memory latency is hidden behind the
// compare work of the ring's other queries — the asynchronous
// memory-access chaining of Kocberber et al., in portable Go: with no
// prefetch intrinsic, the "prefetch" is an ordinary early load whose
// value is consumed one rotation later, which leaves the out-of-order
// core free to overlap the ring's independent misses.
//
// Every kernel answers the same contract: pos[i] receives the array
// position of queries[i] (or -1 when absent) — pos may be nil when only
// the hit count is wanted — and the result is identical to running the
// layout's serial searcher per query. A ring takes the queries in groups
// of its size and admits the next group once the current one has
// finished. The sorted, BST and B-tree layouts have a ring kernel; vEB
// and hier batches descend one query at a time (see findBatchChunk).

// batchRing is the number of in-flight searches per ring. One rotation
// must outlast a memory fetch for the early loads to land in time: at a
// handful of ns of compare work per machine step, 32 machines cover
// DRAM latency with slack, keeping the per-core miss buffers (~10-16
// outstanding lines) saturated even while some loads are still queued
// behind them. On a 2 vCPU guest, BenchmarkBatchKernels puts rings of
// 8, 16 and 32 within run-to-run noise of each other on every layout at
// n = 2^20 and 2^22; the ring's state is a few machines' worth of
// indices and keys.
const batchRing = 32

// InterleaveMinBatch is the per-worker batch size from which the
// batched Index queries (FindBatch, FindBatchInto) dispatch to the
// interleaved ring kernels instead of one-at-a-time descents: below
// roughly two ring fills the admission and drain bookkeeping is not
// amortized, and the serial kernels win.
const InterleaveMinBatch = 2 * batchRing

// b2i converts a comparison result to an int without a branch in the
// callers' compare loops (the compiler lowers it to a flag move).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bstMach is one in-flight Eytzinger search: the query, the current
// node as a 1-based level-order index (children 2j and 2j+1 — the
// Khuong–Morin indexing, whose bit trail recovers the answer), and the
// node's value, loaded when the node was entered one rotation ago.
type bstMach[T cmp.Ordered] struct {
	q T
	v T // a[j-1], loaded one rotation ago
	j int
}

// bstBatchRing answers queries against the level-order (Eytzinger) BST
// layout with ring interleaved branch-free descents. Results match BST
// per query; pos may be nil.
func bstBatchRing[T cmp.Ordered](a, queries []T, pos []int, ring int) (hits int) {
	n := len(a)
	if len(queries) == 0 {
		return 0
	}
	if n == 0 {
		for i := range queries {
			if pos != nil {
				pos[i] = -1
			}
		}
		return 0
	}
	if ring < 1 {
		ring = 1
	}
	root := a[0]
	ms := make([]bstMach[T], ring)
	// full is the number of completely occupied tree levels: a complete
	// tree's root-to-leaf paths all descend through them, which is what
	// makes the group lockstep below branch-free.
	full := bits.Len(uint(n+1)) - 1
	for base := 0; base < len(queries); base += ring {
		g := min(ring, len(queries)-base)
		for s := 0; s < g; s++ {
			ms[s] = bstMach[T]{q: queries[base+s], v: root, j: 1}
		}
		// Lockstep through the full levels: every machine takes one
		// branch-free descent step — j = 2j + (v < q), then the early
		// load of the next node — per rotation. The loads of the g
		// in-flight searches are independent, so the core overlaps
		// their misses; no exit checks, no data-dependent branches.
		for step := 0; step < full-1; step++ {
			for s := 0; s < g; s++ {
				m := &ms[s]
				j := 2*m.j + b2i(m.v < m.q)
				m.j = j
				m.v = a[j-1]
			}
		}
		// Conditional tail: at most the partial last level remains.
		// The descent went left exactly at the nodes with key >= q, so
		// stripping the trailing ones of the overflowed index walks
		// back up to the lower bound (Khuong–Morin).
		for s := 0; s < g; s++ {
			m := &ms[s]
			j := 2*m.j + b2i(m.v < m.q)
			for j <= n {
				m.j = j
				m.v = a[j-1]
				j = 2*j + b2i(m.v < m.q)
			}
			lb := j >> uint(bits.TrailingZeros(^uint(j))+1)
			res := -1
			if lb >= 1 && a[lb-1] == m.q {
				res = lb - 1
				hits++
			}
			if pos != nil {
				pos[base+s] = res
			}
		}
	}
	return hits
}

// btreeMach is one in-flight B-tree search: the query, the node
// (block) about to be scanned, its first and last keys — loaded when
// the parent step chose it, which is what puts the block's cache lines
// in flight one rotation early — and the accumulated answer.
type btreeMach[T cmp.Ordered] struct {
	q      T
	v0, v1 T // a[node*b], a[node*b+b-1], loaded one rotation ago
	node   int
	res    int // -1 until an in-block equality lands
}

// btreeFullLevels returns the number of tree levels whose blocks are
// all complete (b keys, b+1 children): level k holds (b+1)^k nodes
// starting at node index ((b+1)^k - 1)/b, and is full when its last
// block's end stays within n keys. Descents through full levels need
// no bounds clamps — the branch-free lockstep phase of btreeBatchRing.
func btreeFullLevels(n, b int) int {
	full := 0
	levelStart, nodes := 0, 1
	for (levelStart+nodes)*b <= n {
		full++
		levelStart = levelStart*(b+1) + 1
		nodes *= b + 1
	}
	return full
}

// btreeBatchRing answers queries against the level-order B-tree layout
// (b keys per node) with ring interleaved searches: each step scans one
// block with a branch-free compare loop (count the keys below q — no
// early exit, no per-key branch) and warms the chosen child block's
// lines before rotating away. Results match BTree per query; pos may be
// nil.
func btreeBatchRing[T cmp.Ordered](a []T, b int, queries []T, pos []int, ring int) (hits int) {
	n := len(a)
	if len(queries) == 0 {
		return 0
	}
	if n == 0 || b < 1 {
		for i := range queries {
			if pos != nil {
				pos[i] = -1
			}
		}
		return 0
	}
	if ring < 1 {
		ring = 1
	}
	ms := make([]btreeMach[T], ring)
	full := btreeFullLevels(n, b)
	if b == 1 {
		// Degenerate single-key blocks: the boundary-key scan below
		// assumes two distinct block ends, so send every level through
		// the conditional tail.
		full = 0
	}
	// The root block's boundary keys, preloaded for every machine's
	// first lockstep scan (unused when even the root is partial).
	var root0, root1 T
	if full >= 1 {
		root0, root1 = a[0], a[b-1]
	}
	// warm sinks the partial-level touches issued by the last full-level
	// step: those loads' values are never consumed, so the running
	// maximum keeps them observable, and runtime.KeepAlive pins it at
	// the return below (the keepalive analyzer checks the pin).
	var warm T
	for base := 0; base < len(queries); base += ring {
		g := min(ring, len(queries)-base)
		for s := 0; s < g; s++ {
			ms[s] = btreeMach[T]{q: queries[base+s], v0: root0, v1: root1, res: -1}
		}
		// Lockstep through all but the last full level: scan the whole
		// block branch-free — the boundary keys come from machine state,
		// consuming the loads issued one rotation ago — fold a possible
		// equality into res arithmetically (the clamped probe a[cl]
		// reads a just-scanned line, and when c == b it reads a key < q,
		// which can never equal q), pick child c, and load the child
		// block's boundary keys so its lines are in flight while the
		// other machines take their steps. The child sits in a full
		// level, so the loads need no bounds checks and no machine takes
		// a data-dependent branch.
		for step := 0; step < full-1; step++ {
			for s := 0; s < g; s++ {
				m := &ms[s]
				start := m.node * b
				c := b2i(m.v0 < m.q) + b2i(m.v1 < m.q)
				for _, v := range a[start+1 : start+b-1] {
					c += b2i(v < m.q)
				}
				cl := start + c - b2i(c == b)
				// Fold at most one equality in: the res < 0 factor keeps
				// the first (topmost) match, as the serial kernel does,
				// when duplicate keys put a second match deeper on the
				// same path.
				m.res += (b2i(a[cl] == m.q) & b2i(m.res < 0)) * (cl + 1)
				m.node = m.node*(b+1) + 1 + c
				j := m.node * b
				m.v0, m.v1 = a[j], a[j+b-1]
			}
		}
		// Last full level: same scan, but the chosen child lives in the
		// partial level, so warm its clamped block ends for the tail
		// instead of preloading state.
		if full >= 1 {
			for s := 0; s < g; s++ {
				m := &ms[s]
				start := m.node * b
				c := b2i(m.v0 < m.q) + b2i(m.v1 < m.q)
				for _, v := range a[start+1 : start+b-1] {
					c += b2i(v < m.q)
				}
				cl := start + c - b2i(c == b)
				m.res += (b2i(a[cl] == m.q) & b2i(m.res < 0)) * (cl + 1)
				m.node = m.node*(b+1) + 1 + c
				if j := m.node * b; j < n {
					if warm < a[j] {
						warm = a[j]
					}
					if e := min(j+b, n) - 1; e > j {
						if warm < a[e] {
							warm = a[e]
						}
					}
				}
			}
		}
		// Conditional tail: at most the partial last level remains.
		for s := 0; s < g; s++ {
			m := &ms[s]
			res := m.res
			for res < 0 {
				start := m.node * b
				if start >= n {
					break
				}
				end := min(start+b, n)
				c := 0
				for k := start; k < end; k++ {
					c += b2i(a[k] < m.q)
				}
				if p := start + c; p < end && a[p] == m.q {
					res = p
					break
				}
				m.node = m.node*(b+1) + 1 + c
			}
			if res >= 0 {
				hits++
			}
			if pos != nil {
				pos[base+s] = res
			}
		}
	}
	runtime.KeepAlive(warm)
	return hits
}

// binMach is one in-flight branchless binary search: the query, the
// live window [lo, lo+ln), and the value at the window's midpoint,
// loaded when the window was set.
type binMach[T cmp.Ordered] struct {
	q      T
	v      T // a[lo + ln/2], loaded one rotation ago
	lo, ln int
}

// binBatchRing answers queries against the sorted baseline layout with
// ring interleaved branchless binary searches. Results match Binary per
// query; pos may be nil.
func binBatchRing[T cmp.Ordered](a, queries []T, pos []int, ring int) (hits int) {
	n := len(a)
	if len(queries) == 0 {
		return 0
	}
	if n == 0 {
		for i := range queries {
			if pos != nil {
				pos[i] = -1
			}
		}
		return 0
	}
	if ring < 1 {
		ring = 1
	}
	rootVal := a[n/2]
	ms := make([]binMach[T], ring)
	// After k halvings the window holds at least (n+1)/2^k - 1 keys, so
	// the first Len(n+1)-2 steps can run without emptiness checks.
	uncond := max(bits.Len(uint(n+1))-2, 0)
	for base := 0; base < len(queries); base += ring {
		g := min(ring, len(queries)-base)
		for s := 0; s < g; s++ {
			ms[s] = binMach[T]{q: queries[base+s], v: rootVal, ln: n}
		}
		// Lockstep branchless halving: keep the midpoint in the window
		// when its key is not below q, drop it otherwise — arithmetic
		// only, so a machine's unpredictable comparison never flushes
		// the other machines' in-flight loads.
		for step := 0; step < uncond; step++ {
			for s := 0; s < g; s++ {
				m := &ms[s]
				lt := b2i(m.v < m.q)
				half := m.ln >> 1
				m.lo += -lt & (half + 1)
				m.ln = half - (lt &^ (m.ln & 1))
				m.v = a[m.lo+m.ln>>1] // early load for the next rotation
			}
		}
		// Conditional tail: a couple of keys per window remain.
		for s := 0; s < g; s++ {
			m := &ms[s]
			for m.ln > 0 {
				half := m.ln >> 1
				if m.v < m.q {
					m.lo += half + 1
					m.ln -= half + 1
				} else {
					m.ln = half
				}
				if m.ln > 0 {
					m.v = a[m.lo+m.ln>>1]
				}
			}
			// Window empty: lo is the lower bound.
			res := -1
			if m.lo < n && a[m.lo] == m.q {
				res = m.lo
				hits++
			}
			if pos != nil {
				pos[base+s] = res
			}
		}
	}
	return hits
}

// findBatchChunk answers one worker's chunk: on the layout's interleaved
// ring kernel above the dispatch threshold, one-at-a-time descents below
// it. vEB and hier chunks always descend one at a time: their rings
// measured no faster than serial descents (BenchmarkBatchKernels), and a
// major page fault blocks the goroutine whatever the ring does. pos may
// be nil.
func (ix *Index[T]) findBatchChunk(queries []T, pos []int) (hits int) {
	if len(queries) >= InterleaveMinBatch {
		switch ix.kind {
		case layout.Sorted:
			return binBatchRing(ix.data, queries, pos, batchRing)
		case layout.BST:
			return bstBatchRing(ix.data, queries, pos, batchRing)
		case layout.BTree:
			return btreeBatchRing(ix.data, ix.b, queries, pos, batchRing)
		}
	}
	for i, q := range queries {
		p := ix.Find(q)
		if pos != nil {
			pos[i] = p
		}
		if p >= 0 {
			hits++
		}
	}
	return hits
}

// FindBatchInto answers all queries with p parallel workers (values
// below 1 fall back to serial), writing the array position of
// queries[i] — or -1 when absent — to pos[i], and returns the number of
// hits. len(pos) must equal len(queries). Positions let a caller
// resolve values without a second descent: the store's batched reads
// feed each position straight into the shard's value array.
//
// Chunks of at least InterleaveMinBatch queries run on the interleaved
// ring kernels, which answer the same queries identically to Find but
// overlap independent searches' memory latency; smaller chunks, and
// every vEB and hier chunk, run serial descents.
func (ix *Index[T]) FindBatchInto(queries []T, pos []int, p int) (hits int) {
	if len(pos) != len(queries) {
		panic(fmt.Sprintf("search: FindBatchInto: %d queries but %d positions", len(queries), len(pos)))
	}
	return ix.findBatch(queries, pos, p)
}

// findBatch is the shared batch driver: partition across workers with
// par.Runner, answer each chunk, merge hit counts. pos may be nil when
// only the hit count is wanted (FindBatch).
func (ix *Index[T]) findBatch(queries []T, pos []int, p int) (hits int) {
	if p < 1 {
		p = 1
	}
	if p == 1 || len(queries) < 2*p {
		var chunkPos []int
		if pos != nil {
			chunkPos = pos[:len(queries)]
		}
		return ix.findBatchChunk(queries, chunkPos)
	}
	// Each iteration is a full tree descent, so forking pays off well
	// below par.DefaultMinFor — same partition idiom as store.GetBatch.
	r := par.Runner{Lo: 0, Hi: p, MinFor: 2 * p}
	partial := make([]int, p)
	r.For(len(queries), func(w, lo, hi int) {
		var chunkPos []int
		if pos != nil {
			chunkPos = pos[lo:hi]
		}
		partial[w] = ix.findBatchChunk(queries[lo:hi], chunkPos)
	})
	for _, h := range partial {
		hits += h
	}
	return hits
}
