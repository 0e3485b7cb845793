package store

import (
	"cmp"
	"slices"

	"implicitlayout/search"
)

// Scan calls yield for every record in the store, in globally ascending
// key order, stopping early if yield returns false. No shard is ever
// unpermuted: shards are read in fence order, which is globally sorted
// because the build partitioned by key range, each through its layout's
// in-order search.Cursor (O(N) node visits total). Like every query,
// Scan leaves the snapshot untouched and may run alongside any number
// of other readers.
func (s *Store[K, V]) Scan(yield func(key K, val V) bool) {
	var c storeCursor[K, V]
	var zero K
	for c.seek(s, zero, zero, true); c.ok; c.advance() {
		if !yield(c.key, c.val) {
			return
		}
	}
}

// Range calls yield for every record with lo <= key <= hi, in globally
// ascending key order, stopping early if yield returns false. The fence
// keys pick the first shard that can hold lo, one Seek descends it, and
// the walk stops at the first key above hi, so the cost is
// O(k + S log N) node visits for k reported records over S intersecting
// shards.
func (s *Store[K, V]) Range(lo, hi K, yield func(key K, val V) bool) {
	if hi < lo {
		return
	}
	var c storeCursor[K, V]
	for c.seek(s, lo, hi, false); c.ok; c.advance() {
		if !yield(c.key, c.val) {
			return
		}
	}
}

// storeCursor reads one Store's records in ascending key order: shards
// in fence order, each through its layout's search.Cursor, with one
// record of lookahead in key/val. It is the only ordered reader of a
// store — Range and Scan loop over it, and every input of the DB's
// k-way merge (runs and memtable views alike) is one.
type storeCursor[K cmp.Ordered, V any] struct {
	s   *Store[K, V]
	si  int              // shard under cur
	cur search.Cursor[K] // in-order cursor over shard si
	hi  K                // last key to read, unless all
	all bool
	key K
	val V
	ok  bool // key/val hold a record; false once the cursor is exhausted
}

// seek positions c on s at the first record with key >= lo, reading no
// key above hi; with all set it starts at the first record and never
// stops early.
func (c *storeCursor[K, V]) seek(s *Store[K, V], lo, hi K, all bool) {
	*c = storeCursor[K, V]{s: s, hi: hi, all: all}
	if !all && len(s.fences) > 1 {
		// A shard's keys never exceed the next fence, so lo's first
		// shard is the first whose successor fence is >= lo.
		c.si, _ = slices.BinarySearch(s.fences[1:], lo)
	}
	if c.si < len(s.shards) {
		c.cur = search.NewCursor(s.shards[c.si].idx)
		if !all {
			c.cur.Seek(lo)
		}
	}
	c.advance()
}

// advance loads the next record into key/val, crossing into the next
// shard when the current one runs dry.
func (c *storeCursor[K, V]) advance() {
	for c.si < len(c.s.shards) {
		if pos := c.cur.Next(); pos >= 0 {
			c.key = c.s.shards[c.si].idx.At(pos)
			if c.ok = c.all || c.key <= c.hi; c.ok {
				c.val = c.s.valAt(Ref{Shard: c.si, Pos: pos})
			} else {
				c.si = len(c.s.shards) // past hi: nothing later qualifies
			}
			return
		}
		if c.si++; c.si < len(c.s.shards) {
			c.cur = search.NewCursor(c.s.shards[c.si].idx)
		}
	}
	c.ok = false
}
