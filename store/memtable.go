package store

import (
	"cmp"
	"sync"

	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// mval is the record payload inside the DB's write path: the user value
// plus a tombstone bit. Runs store mval payloads too, so a deletion
// written to the memtable keeps shadowing older runs after it is flushed,
// until compaction reaches the last level and drops it for good.
type mval[V any] struct {
	val  V
	dead bool
}

// memtable is the DB's mutable ingest buffer: a hash map with overwrite
// (KeepLast) semantics and tombstones for deletes, plus a sorted view
// materialized at most once after the table freezes.
//
// The representation is deliberately a map, not a skip list or sorted
// array: Put, Delete, and Get are O(1) under the DB's lock, so the write
// path's critical section stays a few dozen nanoseconds no matter how
// full the table is. Order is recovered once per memtable lifetime by
// sortByKey (radix for integer and float keys — a table under the leaf
// size of about 1 MiB is one in-cache bucket sort — merge for strings) —
// at flush, whose run maker then reads the sorted view through one
// cursor, or at the first ordered read of a frozen table. Ordered reads
// of the *active* table sort their interval per call; that cost is
// bounded by the flush threshold and carried by the reader, not by
// writers.
type memtable[K cmp.Ordered, V any] struct {
	m        map[K]mval[V]
	sortOnce sync.Once
	keys     []K       // sorted view: every key, ascending
	vals     []mval[V] // sorted view: vals[i] is the payload of keys[i]
	// wal is the sealed write-ahead log that carries this table's
	// records (durable mode, set at freeze). It outlives the table just
	// long enough for the flush that persists the records as a segment,
	// which then deletes it.
	wal *walWriter[K, V]
}

// newMemtable returns an empty table whose map is sized for hint
// records: a table that replaces a frozen one is sized to the length
// that one reached, so it fills without growing its map.
func newMemtable[K cmp.Ordered, V any](hint int) *memtable[K, V] {
	return &memtable[K, V]{m: make(map[K]mval[V], hint)}
}

// put inserts or overwrites key with the given payload.
func (m *memtable[K, V]) put(key K, mv mval[V]) { m.m[key] = mv }

// get returns the payload stored under key. A hit with mv.dead set means
// the key was deleted here — the caller must stop searching older data.
func (m *memtable[K, V]) get(key K) (mv mval[V], ok bool) {
	mv, ok = m.m[key]
	return mv, ok
}

// len returns the number of records, tombstones included (a tombstone
// occupies a slot and counts toward the flush threshold like any write).
func (m *memtable[K, V]) len() int { return len(m.m) }

// collect returns unsorted copies of the keys in [lo, hi] (all of them
// when all is set) and their payloads, index for index. Range readers
// collect the active memtable under the DB's read lock — one O(len)
// scan, no ordering work — and sort the copy outside it, so a long scan
// never holds up writers.
func (m *memtable[K, V]) collect(lo, hi K, all bool) ([]K, []mval[V]) {
	keys := make([]K, 0, len(m.m))
	vals := make([]mval[V], 0, len(m.m))
	for k, mv := range m.m {
		if all || (k >= lo && k <= hi) {
			keys = append(keys, k)
			vals = append(vals, mv)
		}
	}
	return keys, vals
}

// sorted returns the table's keys in ascending order with their
// payloads, sorting them on r's workers on first use. Only safe on frozen
// memtables: the map must no longer be written. Concurrent callers (the
// compactor flushing, readers merging) share one materialization.
func (m *memtable[K, V]) sorted(r par.Runner) ([]K, []mval[V]) {
	m.sortOnce.Do(func() {
		var zk K
		keys, vals := m.collect(zk, zk, true)
		m.keys, m.vals = make([]K, len(keys)), make([]mval[V], len(vals))
		sortByKey(r, keys, vals, m.keys, m.vals)
	})
	return m.keys, m.vals
}

// memRun wraps sorted unique records as a one-shard Sorted-layout run,
// so a memtable's records enter the merge through the same storeCursor
// as the runs beneath it.
func memRun[K cmp.Ordered, V any](keys []K, vals []mval[V]) *Store[K, mval[V]] {
	if len(keys) == 0 {
		return newStore[K, mval[V]](Config{Layout: layout.Sorted}, nil, nil)
	}
	return newStore(Config{Layout: layout.Sorted}, [][]K{keys}, [][]mval[V]{vals})
}
