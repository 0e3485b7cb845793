package store

import "cmp"

// run is one immutable sorted run of the DB: a sharded implicit-layout
// Store whose payloads carry the tombstone bit, tagged with its
// compaction level. Level 0 runs are single flushed memtables; a level
// L+1 run is the merge of Fanout level-L runs. Within the DB's run stack
// runs are ordered newest first, which is also level-ascending: every
// record in a lower-level run is newer than any equal-key record below
// it.
type run[K cmp.Ordered, V any] struct {
	st    *Store[K, mval[V]]
	level int
	// file is the run's segment file (base name inside the DB
	// directory), or "" in memory-only mode. A run with a file is
	// durable: its records survive a restart without the WAL.
	file string
}

// dbstate is the immutable half of a DB, published through one atomic
// pointer: the frozen memtables waiting to be flushed (newest first) and
// the run stack (newest first). Readers load the pointer once and get a
// consistent snapshot — a flush or merge replaces the whole dbstate in a
// single swap, so no reader ever observes a record twice or not at all
// while it migrates from memtable to run to merged run.
type dbstate[K cmp.Ordered, V any] struct {
	frozen []*memtable[K, V]
	runs   []*run[K, V]
}
