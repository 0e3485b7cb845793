package store

import (
	"cmp"
)

// This file is the DB's one k-way merge: a loser tree over storeCursors,
// newest input first, resolving each key to its newest version. DB.Range
// and DB.Scan run it over the memtables and runs with tombstones
// suppressed; the run maker (newRun) runs it over a flushed memtable or
// the victim runs of a merge and cuts the stream into shards. Either way
// the merge holds k cursors and nothing else: a durable fixed-width run
// keeps one output shard on the heap, and everything else stays on disk
// (or in the page cache, for mapped inputs) until the moment it is read
// or written.

// maxStreamShardRecs caps a run's shard size, and with it the peak heap
// of a run written to a segment: a run whose output would exceed
// Shards × this many records simply gets more shards. 2^19 records of
// a 16-byte (key, payload) pair is ~8 MiB of buffer — big enough that
// permutation and frame-write costs amortize, small enough that a
// GOMEMLIMIT a fraction of the dataset holds.
const maxStreamShardRecs = 1 << 19

// loserTree is the merge's selection structure: a tournament tree over
// k cursors where node[0] holds the current winner and node[1:] hold
// the losers of the internal matches, so replacing the winner replays
// exactly one leaf-to-root path — ceil(log2 k) comparisons per record.
// Ties order by cursor index, lower (newer) first, which is what makes
// the first record the merge yields for a key the newest version.
type loserTree[K cmp.Ordered, V any] struct {
	src  []storeCursor[K, mval[V]]
	node []int
}

func newLoserTree[K cmp.Ordered, V any](src []storeCursor[K, mval[V]]) *loserTree[K, V] {
	t := &loserTree[K, V]{src: src, node: make([]int, max(len(src), 1))}
	for i := range t.node {
		t.node[i] = -1
	}
	// Seed the bracket leaf by leaf, descending: a carried winner parks
	// at the first vacant internal slot (its opponent has not arrived
	// yet); a winner whose whole path is already decided is the root.
	for i := len(src) - 1; i >= 0; i-- {
		w := i
		for n := (i + len(src)) / 2; n > 0; n /= 2 {
			if t.node[n] == -1 {
				t.node[n] = w
				w = -1
				break
			}
			if t.beats(t.node[n], w) {
				w, t.node[n] = t.node[n], w
			}
		}
		if w >= 0 {
			t.node[0] = w
		}
	}
	return t
}

// beats reports whether cursor a wins the match against cursor b: the
// smaller next key wins, the lower index breaks ties, and an exhausted
// cursor loses to any live one.
func (t *loserTree[K, V]) beats(a, b int) bool {
	sa, sb := &t.src[a], &t.src[b]
	if !sa.ok || !sb.ok {
		return sa.ok
	}
	if sa.key != sb.key {
		return sa.key < sb.key
	}
	return a < b
}

// winner returns the index of the cursor holding the smallest next
// record (newest on ties), or -1 when every cursor is exhausted.
func (t *loserTree[K, V]) winner() int {
	if w := t.node[0]; w >= 0 && t.src[w].ok {
		return w
	}
	return -1
}

// advance consumes the winner's current record and replays its path:
// each internal node holds the loser of the match played there, so the
// new champion of the winner's subtree emerges by re-playing exactly
// those matches.
func (t *loserTree[K, V]) advance() {
	w := t.node[0]
	t.src[w].advance()
	for n := (w + len(t.src)) / 2; n > 0; n /= 2 {
		if t.beats(t.node[n], w) {
			w, t.node[n] = t.node[n], w
		}
	}
	t.node[0] = w
}

// kwayMerge is the first-hit-wins k-way merge over runs ordered newest
// first, each read from lo to hi (whole, when all is set). It emits each
// surviving record in ascending key order: for every distinct key the
// newest version wins and shadowed versions are consumed and dropped;
// with dropTombs set, a winning tombstone is dropped too — every read
// sets it, and so does a compaction whose output becomes the oldest
// run. emit returning false stops the merge.
func kwayMerge[K cmp.Ordered, V any](runs []*Store[K, mval[V]], lo, hi K, all, dropTombs bool, emit func(K, mval[V]) bool) {
	cs := make([]storeCursor[K, mval[V]], len(runs))
	for i, r := range runs {
		cs[i].seek(r, lo, hi, all)
	}
	t := newLoserTree(cs)
	for w := t.winner(); w >= 0; {
		key, mv := cs[w].key, cs[w].val
		// Consume the winner and every shadowed equal-key record: ties
		// rank by cursor index, so the first winner was the newest.
		for {
			t.advance()
			if w = t.winner(); w < 0 || cs[w].key != key {
				break
			}
		}
		if dropTombs && mv.dead {
			continue
		}
		if !emit(key, mv) {
			return
		}
	}
}

// streamShardPlan sizes a run's shards for an upper-bound record count:
// at least the configured shard count (so a run shards like a built
// store), more if the configured count would push a shard over
// maxStreamShardRecs. Returns the target records per shard. The true
// output count is only known when the merge finishes, so the last shard
// may run short — readers derive every length from the stream, and
// nothing requires balance.
func streamShardPlan(cfg Config, upper int) int {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if need := (upper + maxStreamShardRecs - 1) / maxStreamShardRecs; need > shards {
		shards = need
	}
	target := (upper + shards - 1) / shards
	if target < 1 {
		target = 1
	}
	return target
}
