package store

import "cmp"

// View is a read view of a DB pinned to one run-stack epoch, with the
// active memtable still live — the epoch-pinning hook the wire server's
// batched reads ride. Creating one loads the DB's snapshot pointer
// exactly once and captures the memtable that was active at that
// moment; every read through the view resolves against that same
// immutable epoch (frozen memtables + run stack), so a multi-key batch
// or a long range never sees half its keys from one run stack and half
// from another while a flush or merge races it. It is not a
// point-in-time snapshot: see below.
//
// Pinning is free: the dbstate and its runs are immutable and
// garbage-collected, so a View is three pointers, and dropping it (or
// tearing the connection that held it) releases the epoch the way any
// reader's snapshot is released — when the GC collects the last
// reference, which is also when a mapped segment held only by this
// epoch is unmapped. There is nothing to close and nothing to leak.
//
// The one mutable input, the captured memtable, keeps receiving writes
// while it remains the DB's active table, so a View's reads are "at
// least as new as the pin" rather than frozen at it: a key overwritten
// after the pin may return the newer value until the memtable freezes.
// What the pin does guarantee is that no acknowledged record vanishes
// mid-view — a record the epoch holds stays readable through the view
// even after compaction has merged its run away — and that every key of
// one batch is answered by the same run-stack epoch.
//
// A View stays valid after Close (it serves the final state, like DB
// reads) and is safe for concurrent use.
type View[K cmp.Ordered, V any] struct {
	db  *DB[K, V]
	act *memtable[K, V]
	st  *dbstate[K, V]
}

// View pins the DB's current epoch and returns a read view of it.
func (db *DB[K, V]) View() *View[K, V] {
	db.mu.RLock()
	// Capture both halves under one lock hold: a freeze swaps the
	// active table into the snapshot under the write lock, so this pair
	// is coherent — the epoch's frozen list and the captured table never
	// both miss a record.
	v := &View[K, V]{db: db, act: db.active, st: db.state.Load()}
	db.mu.RUnlock()
	return v
}

// Get returns the newest live value stored under key as seen by the
// pinned epoch — Get on the DB, minus the possibility of a concurrent
// flush or merge changing which layers answer.
func (v *View[K, V]) Get(key K) (val V, ok bool) {
	v.db.mu.RLock()
	mv, hit := v.act.get(key)
	v.db.mu.RUnlock()
	if hit {
		return liveValue(mv)
	}
	return v.db.getImmutable(v.st, key)
}

// Contains reports whether key has a live value in the pinned epoch.
func (v *View[K, V]) Contains(key K) bool {
	_, ok := v.Get(key)
	return ok
}

// GetBatch answers many independent point lookups against the pinned
// epoch: vals[i] and found[i] are what Get(keys[i]) would return, every
// key resolved by the same run stack. p is the worker count per run
// (values below 1 fall back to serial), as in DB.GetBatch.
func (v *View[K, V]) GetBatch(keys []K, p int) (vals []V, found []bool) {
	return v.db.getBatchOn(v.act, v.st, keys, p)
}

// Range calls yield for every live record with lo <= key <= hi in
// ascending key order within the pinned epoch, stopping early if yield
// returns false.
func (v *View[K, V]) Range(lo, hi K, yield func(key K, val V) bool) {
	if hi < lo {
		return
	}
	v.db.rangeOn(v.act, v.st, lo, hi, false, yield)
}

// Scan calls yield for every live record in the pinned epoch in
// ascending key order — Range over the whole key space.
func (v *View[K, V]) Scan(yield func(key K, val V) bool) {
	var zero K
	v.db.rangeOn(v.act, v.st, zero, zero, true, yield)
}
