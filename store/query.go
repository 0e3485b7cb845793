package store

import (
	"implicitlayout/internal/par"
	"implicitlayout/search"
)

// Ref locates a record inside the store: the shard that holds it and the
// record's position in that shard's layout array.
type Ref struct {
	Shard, Pos int
}

// valAt returns the value stored at ref (the zero V for keys-only
// stores). Values occupy the same per-shard positions as their keys —
// the layout write moved both arrays together, and the segment
// codec preserves the pairing — so the lookup is one slice index,
// whether the shard's arrays live on the heap or in a mapped segment.
func (s *Store[K, V]) valAt(ref Ref) V {
	if s.svals == nil {
		var zero V
		return zero
	}
	return s.svals[ref.Shard][ref.Pos]
}

// GetRef returns the location of key x, or ok == false when x is absent.
// The query routes through the fence keys to the one shard whose range
// covers x and descends that shard's layout.
func (s *Store[K, V]) GetRef(x K) (ref Ref, ok bool) {
	sh := s.route(x)
	if sh < 0 {
		return Ref{}, false
	}
	pos := s.shards[sh].idx.Find(x)
	if pos < 0 {
		return Ref{}, false
	}
	return Ref{Shard: sh, Pos: pos}, true
}

// Get returns the value stored under key x, or ok == false when x is
// absent. Stores built without values (BuildSet, or Build with nil
// vals) return the zero V on hits — see HasValues; use Contains there.
func (s *Store[K, V]) Get(x K) (val V, ok bool) {
	ref, ok := s.GetRef(x)
	if !ok {
		var zero V
		return zero, false
	}
	return s.valAt(ref), true
}

// At returns the record stored at ref, which must come from GetRef or
// PredecessorRef on this store.
func (s *Store[K, V]) At(ref Ref) (key K, val V) {
	return s.shards[ref.Shard].idx.At(ref.Pos), s.valAt(ref)
}

// Contains reports whether key x is present.
func (s *Store[K, V]) Contains(x K) bool {
	_, ok := s.GetRef(x)
	return ok
}

// GlobalOffset returns the sorted rank of the first key of shard i: the
// shard's records occupy ranks [GlobalOffset(i), GlobalOffset(i)+ShardLen(i))
// of the exported sorted order.
func (s *Store[K, V]) GlobalOffset(i int) int { return s.shards[i].off }

// Predecessor returns the largest key <= x with its value, or ok ==
// false when x precedes every key.
func (s *Store[K, V]) Predecessor(x K) (key K, val V, ok bool) {
	ref, ok := s.PredecessorRef(x)
	if !ok {
		var zeroK K
		var zeroV V
		return zeroK, zeroV, false
	}
	key, val = s.At(ref)
	return key, val, true
}

// PredecessorRef returns the location of the largest key <= x, or ok ==
// false when x precedes every key. The fence router guarantees the
// answer, if any, lies in the routed shard: its fence (smallest key) is
// <= x by construction.
func (s *Store[K, V]) PredecessorRef(x K) (ref Ref, ok bool) {
	sh := s.route(x)
	if sh < 0 {
		return Ref{}, false
	}
	return Ref{Shard: sh, Pos: s.shards[sh].idx.Predecessor(x)}, true
}

// ShardStats counts the queries routed to one shard and how many hit.
type ShardStats struct {
	Queries, Hits int
}

// BatchStats aggregates one GetBatch call: total queries and hits, the
// per-shard breakdown (indexed by shard), and the queries no fence
// covered. Unrouted queries reach no shard, so they appear in no
// ShardStats entry; counting them separately keeps the books balanced:
// Queries == sum over Shards of Queries + Unrouted.
type BatchStats struct {
	Queries, Hits int
	Unrouted      int
	Shards        []ShardStats
}

// BatchResult is one GetBatch answer set: Vals[i] is the value stored
// under queries[i] (the zero V when absent, or for keys-only stores) and
// Found[i] reports presence; the embedded BatchStats aggregates hit
// counts per shard.
type BatchResult[V any] struct {
	Vals  []V
	Found []bool
	BatchStats
}

// batchGroupMin is the per-worker chunk size from which GetBatch
// regroups its queries by shard and answers each shard's slice with one
// interleaved ring (see getBatchGrouped). Below it the regrouping
// buffers cost more than the rings recover, and the query-by-query path
// wins.
const batchGroupMin = search.InterleaveMinBatch

// getBatchChunk answers one worker's chunk, writing the aligned result
// slices and accumulating stats: regrouped ring execution for chunks
// worth the buffers, query-by-query routing below that.
func (s *Store[K, V]) getBatchChunk(queries []K, vals []V, found []bool, shards []ShardStats) (hits, unrouted int) {
	if len(queries) >= batchGroupMin && len(s.shards) > 0 {
		return s.getBatchGrouped(queries, vals, found, shards)
	}
	return s.getBatchSerial(queries, vals, found, shards)
}

// getBatchSerial answers queries one at a time: route, descend, record.
// vals, found, and queries have equal length.
func (s *Store[K, V]) getBatchSerial(queries []K, vals []V, found []bool, shards []ShardStats) (hits, unrouted int) {
	for qi, q := range queries {
		sh := s.route(q)
		if sh < 0 {
			unrouted++
			continue
		}
		shards[sh].Queries++
		pos := s.shards[sh].idx.Find(q)
		if pos < 0 {
			continue
		}
		shards[sh].Hits++
		hits++
		found[qi] = true
		vals[qi] = s.valAt(Ref{Shard: sh, Pos: pos})
	}
	return hits, unrouted
}

// getBatchGrouped answers queries by shard instead of by arrival order:
// route every query, bucket the routed ones per shard with a counting
// sort, answer each shard's bucket with one FindBatchInto call — an
// interleaved ring descending a single layout, instead of rings forced
// to straddle shards — and scatter the positions back through the
// bucket's index permutation. Results and stats are identical to
// getBatchSerial; only the descent order changes.
func (s *Store[K, V]) getBatchGrouped(queries []K, vals []V, found []bool, shards []ShardStats) (hits, unrouted int) {
	ns := len(s.shards)
	shardOf := make([]int, len(queries))
	offs := make([]int, ns+1)
	for qi, q := range queries {
		sh := s.route(q)
		shardOf[qi] = sh
		if sh < 0 {
			unrouted++
			continue
		}
		offs[sh+1]++
	}
	for i := 0; i < ns; i++ {
		offs[i+1] += offs[i]
	}
	routed := offs[ns]
	gk := make([]K, routed)     // queries, grouped by shard
	gidx := make([]int, routed) // original index of gk[i]
	next := make([]int, ns)
	copy(next, offs[:ns])
	for qi, sh := range shardOf {
		if sh < 0 {
			continue
		}
		at := next[sh]
		next[sh] = at + 1
		gk[at] = queries[qi]
		gidx[at] = qi
	}
	gpos := make([]int, routed)
	for sh := 0; sh < ns; sh++ {
		lo, hi := offs[sh], offs[sh+1]
		if lo == hi {
			continue
		}
		shHits := s.shards[sh].idx.FindBatchInto(gk[lo:hi], gpos[lo:hi], 1)
		shards[sh].Queries += hi - lo
		shards[sh].Hits += shHits
		hits += shHits
	}
	for gi, qi := range gidx {
		if pos := gpos[gi]; pos >= 0 {
			found[qi] = true
			vals[qi] = s.valAt(Ref{Shard: shardOf[qi], Pos: pos})
		}
	}
	return hits, unrouted
}

// GetBatch answers all queries with p parallel workers (values below 1
// fall back to serial; so do batches too small to be worth forking) and
// returns every value alongside aggregate and per-shard statistics.
// Queries are independent, so the batch is split into p contiguous
// chunks, each worker routes and answers its chunk against the shared
// immutable shards — writing disjoint ranges of the result slices — and
// the per-worker statistics are merged: the embarrassingly parallel
// query workload of the paper's evaluation, behind a serving-layer
// interface.
func (s *Store[K, V]) GetBatch(queries []K, p int) BatchResult[V] {
	res := BatchResult[V]{
		Vals:  make([]V, len(queries)),
		Found: make([]bool, len(queries)),
		BatchStats: BatchStats{
			Queries: len(queries),
			Shards:  make([]ShardStats, len(s.shards)),
		},
	}
	if p < 1 {
		p = 1
	}
	if p == 1 || len(queries) < 2*p {
		res.Hits, res.Unrouted = s.getBatchChunk(queries, res.Vals, res.Found, res.Shards)
		return res
	}
	// Unlike the permutation loops, each iteration here is a full tree
	// descent, so forking pays off well below par.DefaultMinFor.
	r := par.Runner{Lo: 0, Hi: p, MinFor: 2 * p}
	type partialStats struct {
		hits, unrouted int
		shards         []ShardStats
	}
	partial := make([]partialStats, p)
	r.For(len(queries), func(w, lo, hi int) {
		shards := make([]ShardStats, len(s.shards))
		hits, unrouted := s.getBatchChunk(queries[lo:hi], res.Vals[lo:hi], res.Found[lo:hi], shards)
		partial[w] = partialStats{hits: hits, unrouted: unrouted, shards: shards}
	})
	for _, st := range partial {
		if st.shards == nil {
			continue // worker past the end of a short batch
		}
		res.Hits += st.hits
		res.Unrouted += st.unrouted
		for i, sh := range st.shards {
			res.Shards[i].Queries += sh.Queries
			res.Shards[i].Hits += sh.Hits
		}
	}
	return res
}
