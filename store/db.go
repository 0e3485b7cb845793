package store

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// DefaultMemLimit is the default memtable flush threshold, in records.
const DefaultMemLimit = 1 << 15

// DefaultFanout is the default number of runs a level accumulates before
// the compactor merges them into one run of the next level.
const DefaultFanout = 4

// ErrClosed is returned by writes issued after Close.
var ErrClosed = errors.New("store: db is closed")

// DBConfig parameterizes NewDB and Open; zero fields select defaults.
type DBConfig struct {
	// MemLimit is the memtable size (in records, tombstones included) at
	// which the write path freezes it for flushing (default
	// DefaultMemLimit).
	MemLimit int
	// Fanout is the number of runs per level that triggers a merge into
	// the next level (default DefaultFanout).
	Fanout int
	// SyncWrites, in durable mode, fsyncs the write-ahead log after
	// every Put and Delete before acknowledging it, extending the crash
	// guarantee from "process crash loses nothing" to "OS or power
	// failure loses nothing" — at the cost of one disk sync per write.
	// The sync happens outside the DB's mutex, after the record is
	// logged and applied, so concurrent readers never stall behind it,
	// and one writer's fsync covers every append that preceded it (a
	// natural group commit under concurrency). With SyncWrites off (the
	// default), every acked write still reaches the OS before the call
	// returns — it is copied into a shared mapping of the log, which is
	// the OS page cache, so a process crash loses nothing — and the log
	// is always fsynced when a memtable freezes.
	// Ignored in memory-only mode.
	SyncWrites bool
	// Mmap selects cold-serve mode for durable DBs: every raw (v2 or
	// v2.1) segment is served from a read-only memory mapping instead of
	// being decoded onto the heap, so reopening a directory is
	// O(#segments) metadata work — the shard arrays are never read, only
	// mapped — and the OS page cache, not the Go heap, holds the working
	// set, letting a DB serve datasets well beyond RAM (and beyond
	// GOMEMLIMIT). Every durable run of a fixed-width DB is served from
	// its segment through one reader, whether Open reopened it or a
	// flush, recovery or merge just wrote it, so with Mmap every such run
	// is mapped. v1 (gob) segments and platforms without mmap fall back
	// to heap decoding per segment. A mapped segment's pages are
	// released when the last snapshot epoch holding its run is
	// garbage-collected — reads that started before a compaction or
	// Close stay safe.
	// Ignored in memory-only mode (there are no segments to map).
	Mmap bool
	// Store holds the build options every run is built with — layout,
	// shard count, B, workers. Runs are laid out as B-trees of
	// layout.DefaultB keys per node unless Store names a layout: a
	// reopened one-run DB answers a mix of present and absent keys
	// fastest on B-tree runs (BenchmarkDBGet), and the B-tree writer's
	// lower speed than vEB's costs the caller nothing here, because
	// flushes and merges write runs off the write path. (Build, whose
	// caller waits for the layout write, keeps vEB.) Every run keeps the
	// layout its segment header records, so a directory written with
	// other layouts reopens unchanged, and its next merge writes the
	// merged run in this configuration. WithDuplicates is ignored: the
	// write path has overwrite semantics, so runs are always built
	// KeepLast (see the duplicate-policy table in README.md).
	// WithMmap(true) is refused: how runs are served is DBConfig.Mmap,
	// and Open fails rather than serve heap-decoded runs the caller
	// asked to map.
	Store []Option
}

// DB is a writable key–value store: an LSM-style composition of one
// mutable sorted memtable (the write path) over a stack of immutable
// leveled runs, where every run is a sharded implicit-layout Store laid
// out by the same in-place layout writer as a static Build. Cheap
// in-place construction, the paper's theme, is what makes
// this composition viable — (re)building a run's search layout at flush
// and compaction time costs one in-order write, not a pointer-tree
// rebuild.
//
// Writes (Put, Delete) go to the memtable under a short mutex; when it
// reaches the configured limit it is frozen and a background compactor
// flushes it into a level-0 run, merging runs level to level as they
// accumulate (tiered compaction with the configured fanout; flushes and
// merges make their runs through one k-way merge). All immutable state
// — frozen memtables and the run stack — lives in one atomically
// swapped snapshot, so readers never block on the compactor and the
// compactor never blocks readers; a reader that loaded the previous
// snapshot keeps reading the runs it holds, which stay valid forever.
//
// Reads consult the active memtable, then frozen memtables, then runs
// newest to oldest; the first version of a key found wins, and a
// tombstone hides every older version until compaction into the oldest
// run drops it. Range and Scan k-way-merge the memtables with per-run
// fence-pruned layout streams, yielding live records in ascending key
// order.
//
// A DB is safe for concurrent use: any number of readers may overlap
// with any number of writers and with background compaction. Writes are
// applied one at a time (last writer wins on a key); reads are
// point-in-time against the state they start from.
//
// A DB opened with NewDB (or Open with an empty directory path) is
// memory-only: nothing survives the process. A DB opened with Open on a
// directory is durable — every Put and Delete is appended to a
// write-ahead log before it is acknowledged, flushed runs are written as
// checksummed segment files holding the laid-out arrays verbatim, and an
// atomically rewritten manifest names the live segments, so a reopened
// directory serves every acknowledged write without re-sorting or
// re-laying-out anything that had reached a segment.
type DB[K cmp.Ordered, V any] struct {
	cfg     DBConfig
	runCfg  Config // every run's build parameters: cfg.Store resolved, KeepLast forced
	dir     string // "" = memory-only
	unlock  func() // releases the directory flock (durable mode)
	mu      sync.RWMutex
	active  *memtable[K, V]
	wal     *walWriter[K, V] // active memtable's log; nil when memory-only or closed (guarded by mu)
	raw     bool             // rawDB: logs are raw v2 and merges stream v2.1, not gob; set once by Open
	closed  bool             // guarded by mu
	nextSeq atomic.Uint64
	state   atomic.Pointer[dbstate[K, V]]
	compact sync.Mutex // serializes maintain(): background worker vs Flush/Close
	worker  *par.Worker
	errMu   sync.Mutex
	ioErr   error // first durability failure; sticky, fails all later writes

	// Read-amplification counters: for every (point lookup, run) pair
	// the read path either probes the run or the run's filter metadata
	// proves the key absent first (fence interval, then bloom filter).
	// Plain atomics — the counters are observability, never consulted
	// for correctness, and a Get must not contend on anything shared.
	ampProbed atomic.Uint64
	ampFence  atomic.Uint64
	ampBloom  atomic.Uint64
}

// NewDB opens an empty memory-only writable store — Open with no
// directory. The configuration is validated eagerly (unknown layouts
// fail here, not at first flush).
func NewDB[K cmp.Ordered, V any](cfg DBConfig) (*DB[K, V], error) {
	return Open[K, V]("", cfg)
}

// Open opens a writable store backed by dir, creating the directory if
// needed. An empty dir selects memory-only mode (NewDB). Otherwise the
// directory's manifest names the live segment files, each of which is
// reopened by reading its laid-out shard arrays straight into memory —
// no re-sort, no re-layout — and any write-ahead logs left by a crash
// or unclean shutdown are replayed, flushed into a fresh level-0
// segment, and deleted, so the acknowledged history is intact before
// Open returns. (A log damaged beyond its tail is preserved under a
// ".corrupt" suffix rather than deleted: its intact prefix is recovered,
// the rest is kept for inspection. A raw log written for other key or
// value types fails Open with an error naming the mismatch and is left
// in place.)
//
// The directory is held exclusively: Open takes an advisory flock on a
// LOCK file inside it, so a second Open — from this or another process
// — fails instead of corrupting the first opener's log and manifest.
// The lock dies with the process; Close releases it early. On platforms
// without flock (non-unix builds) this exclusivity is documented but
// not enforced — never point two DBs at one directory there.
func Open[K cmp.Ordered, V any](dir string, cfg DBConfig) (*DB[K, V], error) {
	if cfg.MemLimit == 0 {
		cfg.MemLimit = DefaultMemLimit
	}
	if cfg.MemLimit < 1 {
		return nil, fmt.Errorf("store: MemLimit %d < 1", cfg.MemLimit)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("store: Fanout %d < 2", cfg.Fanout)
	}
	// Reject invalid run options before any data is accepted. Runs are
	// B-trees unless cfg.Store names a layout (see DBConfig.Store).
	opts := append([]Option{WithLayout(layout.BTree)}, cfg.Store...)
	runCfg, err := newConfig(append(opts, WithDuplicates(KeepLast)))
	if err != nil {
		return nil, fmt.Errorf("store: invalid run options: %w", err)
	}
	if runCfg.Mmap {
		return nil, errors.New("store: WithMmap in DBConfig.Store does not map runs; set DBConfig.Mmap")
	}
	db := &DB[K, V]{
		cfg:    cfg,
		runCfg: runCfg,
		active: newMemtable[K, V](0),
	}
	db.state.Store(&dbstate[K, V]{})
	if dir != "" {
		if err := db.openDir(dir); err != nil {
			return nil, err
		}
	}
	db.worker = par.NewWorker(db.maintain)
	return db, nil
}

// openDir performs the durable half of Open: manifest load, segment
// reopen, stale-file cleanup, WAL replay and recovery flush, and the
// creation of the active memtable's log.
func (db *DB[K, V]) openDir(dir string) error {
	db.dir = dir
	// Fixed-width keys and values are logged raw (v2), so they are
	// always encodable. Every other type pair is logged through gob;
	// reject the types gob cannot carry now, not at the first Put.
	if db.raw = rawDB[K, V](); !db.raw {
		var zeroK K
		if _, _, err := encodeGobRecord(zeroK, mval[V]{}); err != nil {
			return fmt.Errorf("store: durable mode requires fixed-width or gob-encodable key and value types: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating db directory: %w", err)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	db.unlock = unlock
	fail := func(err error) error {
		unlock()
		return err
	}
	man, found, err := readManifest(dir)
	if err != nil {
		return fail(err)
	}
	// Reopen every named segment concurrently — each is an independent
	// straight read of its laid-out arrays, so recovery time is bounded
	// by the largest segment, not the segment count.
	runs := make([]*run[K, V], len(man.Segments))
	live := make(map[string]bool, len(man.Segments))
	segErrs := make([]error, len(man.Segments))
	for _, seg := range man.Segments {
		live[seg.File] = true
	}
	par.New(db.runCfg.Workers).Tasks(len(man.Segments), func(i int, _ par.Runner) {
		seg := man.Segments[i]
		st, err := db.readSegmentFile(seg.File)
		if err != nil {
			segErrs[i] = fmt.Errorf("store: reopening segment %s: %w", seg.File, err)
			return
		}
		runs[i] = &run[K, V]{st: st, level: seg.Level, file: seg.File}
	})
	if err := errors.Join(segErrs...); err != nil {
		return fail(err)
	}

	// Inventory the directory: find the WAL files to replay, delete
	// segments the manifest no longer references and temp files a
	// crashed atomic rewrite left behind (we hold the flock, so no live
	// writer owns one), and recover the naming sequence from the
	// highest number in use.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(fmt.Errorf("store: reading db directory: %w", err))
	}
	var walSeqs []uint64
	var maxSeq uint64
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSegmentSeq(name); ok {
			if !found {
				// The protocol stamps a manifest before the first
				// segment ever exists, so segments without one mean the
				// authoritative list was lost to external damage.
				// Treating this as a fresh store would GC real data —
				// refuse instead.
				return fail(fmt.Errorf("store: %s holds segment files but no MANIFEST; refusing to open it as a fresh store", dir))
			}
			maxSeq = max(maxSeq, seq)
			if !live[name] {
				// A stray segment is normally a crashed flush's orphan —
				// garbage by protocol. But a stray whose codec version
				// this build does not know was written by a NEWER build,
				// and guessing that a newer build's file is garbage risks
				// destroying data whose role we cannot judge: refuse the
				// directory instead of GC'ing it.
				if v, err := probeSegmentVersion(filepath.Join(dir, name)); err == nil && !knownSegVersion(v) {
					return fail(fmt.Errorf("store: stray segment %s has codec version %d, which this build does not know (written by a newer build?); refusing to garbage-collect it", name, v))
				}
				os.Remove(filepath.Join(dir, name)) // stray: GC, best-effort
			}
		} else if seq, ok := parseWALSeq(name); ok {
			maxSeq = max(maxSeq, seq)
			walSeqs = append(walSeqs, seq)
		} else if base, isCorrupt := strings.CutSuffix(name, ".corrupt"); isCorrupt {
			// Preserved damaged logs still pin their sequence numbers:
			// reusing one would let a future rename clobber the very
			// file that was kept for inspection.
			if seq, ok := parseWALSeq(base); ok {
				maxSeq = max(maxSeq, seq)
			}
		} else if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name)) // crashed WriteFileAtomic leftover
		}
	}
	db.nextSeq.Store(maxSeq + 1)
	db.state.Store(&dbstate[K, V]{runs: runs})
	if !found {
		// Stamp the fresh directory NOW, before any recovery flush can
		// create a segment: from here on, "segments but no manifest"
		// can only mean damage, which the check above turns into a
		// refusal rather than a silent GC.
		if err := writeManifest(dir, manifest{}); err != nil {
			return fail(err)
		}
	}

	// Replay the logs oldest to newest into one recovery memtable —
	// replay order is append order, so the newest version of every key
	// wins — then freeze it and flush it synchronously into a level-0
	// segment, through the same flushOne as every other flush. After
	// this the directory's segments alone carry the whole acknowledged
	// history and every replayed log can go: clean and torn logs are
	// deleted, a corrupt log keeps its intact-prefix recovery but is
	// preserved under a ".corrupt" suffix instead of being destroyed.
	slices.Sort(walSeqs)
	rec := newMemtable[K, V](0)
	ends := make(map[uint64]walEnd, len(walSeqs))
	for _, seq := range walSeqs {
		_, end, err := replayWAL(walPath(dir, seq), rec.put)
		if err != nil {
			return fail(err)
		}
		ends[seq] = end
	}
	if rec.len() > 0 {
		db.state.Store(&dbstate[K, V]{frozen: []*memtable[K, V]{rec}, runs: runs})
		if _, err := db.flushOne(); err != nil {
			return fail(err)
		}
	}
	for _, seq := range walSeqs {
		path := walPath(dir, seq)
		if ends[seq] == walCorrupt {
			err = os.Rename(path, path+".corrupt")
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			return fail(fmt.Errorf("store: retiring replayed WAL: %w", err))
		}
	}
	if len(walSeqs) > 0 {
		if err := blockio.SyncDir(dir); err != nil {
			return fail(err)
		}
	}

	w, err := createWAL[K, V](dir, db.nextSeq.Add(1)-1)
	if err != nil {
		return fail(err)
	}
	db.wal = w
	return nil
}

// Put stores val under key, overwriting any existing value. In durable
// mode the write is appended to the write-ahead log before it is
// applied. A nil error is the durability acknowledgment: the write is
// applied and (under the configured sync policy) safe. A non-nil error
// means the write was not acknowledged — it was either not applied at
// all (log append failed) or, on a SyncWrites fsync failure, applied
// but with its durability in doubt; either way the DB's error turns
// sticky and refuses further writes, so an unacknowledged write is
// never silently built upon. Writes after Close return ErrClosed.
func (db *DB[K, V]) Put(key K, val V) error {
	return db.write(key, mval[V]{val: val})
}

// Delete removes key by writing a tombstone: the deletion is a write
// like any other — logged ahead in durable mode, with Put's
// acknowledgment semantics — shadowing older versions of the key in
// frozen memtables and runs until compaction physically drops them.
// Deleting an absent key is a no-op that still costs a memtable slot
// until the next flush.
func (db *DB[K, V]) Delete(key K) error {
	return db.write(key, mval[V]{dead: true})
}

// write applies one record: log-ahead (durable mode), then the memtable
// under a short mutex, freezing the table for the compactor when it
// reaches the limit. The WAL append shares the memtable's mutex, which
// is what makes log order equal apply order. A raw record is encoded
// under the lock, into the log's reused buffers — a copy of the key and
// value plus a CRC, no allocation; a gob record is encoded before the
// lock is taken. The log append is a copy into the log's file mapping,
// with no system call, and the SyncWrites fsync happens after the lock
// is released (see walWriter.syncAck), so the critical section is one
// memory copy plus one map write even in the fully-durable
// configuration.
// The expensive work (sorting, permuting, merging) all happens on the
// compactor goroutine outside the lock.
func (db *DB[K, V]) write(key K, mv mval[V]) error {
	var tag byte
	var payload []byte
	if db.dir != "" && !db.raw {
		var err error
		tag, payload, err = encodeGobRecord(key, mv)
		if err != nil {
			return err
		}
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.err(); err != nil {
		db.mu.Unlock()
		return err
	}
	w := db.wal
	if w != nil {
		if db.raw {
			tag, payload = w.rawRecord(key, mv)
		}
		if err := w.append(tag, payload); err != nil {
			db.setErr(err)
			db.mu.Unlock()
			return err
		}
	}
	db.active.put(key, mv)
	kick := false
	if db.active.len() >= db.cfg.MemLimit {
		//lint:allow syncorder freeze seals the WAL under db.mu by design: one fsync per MemLimit writes, amortized, and the seal must be ordered against concurrent appends
		db.freezeLocked(true)
		kick = true
	}
	db.mu.Unlock()
	if kick {
		db.worker.Kick()
	}
	if w != nil && db.cfg.SyncWrites {
		// The ack waits on the fsync, but readers do not: the record is
		// already applied and the lock released. If a freeze sealed the
		// log in the meantime, the seal's fsync covered the record.
		if err := w.syncAck(); err != nil {
			db.setErr(err)
			return err
		}
	}
	return nil
}

// freezeLocked moves the active memtable into the snapshot's frozen list
// and installs a fresh one, its map sized to the length the outgoing
// table reached. In durable mode the outgoing table's log is sealed
// (cut at its last frame, fsynced and closed) and travels with it until
// the flush that makes it redundant; rotate selects whether a new log
// is created for the fresh table (Close passes false — no further
// writes are coming). Caller holds db.mu.
//
// A durable freeze deliberately pays two fsyncs under the lock (the
// seal, and createWAL's directory sync), and the new log's first
// reservation and mapping: they order the old log's durability ahead
// of the new log's existence, and at one freeze per MemLimit writes the
// cost is amortized to noise — unlike the per-write SyncWrites fsync,
// which is why that one lives outside the lock.
func (db *DB[K, V]) freezeLocked(rotate bool) {
	if db.active.len() == 0 {
		if !rotate && db.wal != nil {
			// Clean shutdown with an empty active table: its log holds
			// nothing — discard it.
			if err := db.wal.discard(); err != nil {
				db.setErr(err)
			}
			db.wal = nil
		}
		return
	}
	if db.wal != nil {
		if err := db.wal.seal(); err != nil {
			db.setErr(err)
		}
		db.active.wal = db.wal
		db.wal = nil
	}
	st := db.state.Load()
	ns := &dbstate[K, V]{
		frozen: append([]*memtable[K, V]{db.active}, st.frozen...),
		runs:   st.runs,
	}
	db.state.Store(ns)
	hint := 0 // Close: no writes follow
	if rotate {
		hint = db.active.len()
	}
	db.active = newMemtable[K, V](hint)
	if rotate && db.dir != "" {
		w, err := createWAL[K, V](db.dir, db.nextSeq.Add(1)-1)
		if err != nil {
			db.setErr(err) // sticky: every later write fails rather than going unlogged
		} else {
			db.wal = w
		}
	}
}

// Get returns the newest live value stored under key, or ok == false if
// the key is absent or deleted. The lookup checks the active memtable
// (under a read lock), then the atomic snapshot's frozen memtables and
// runs newest to oldest; the first version found decides.
func (db *DB[K, V]) Get(key K) (val V, ok bool) {
	db.mu.RLock()
	mv, hit := db.active.get(key)
	db.mu.RUnlock()
	if hit {
		return liveValue(mv)
	}
	st := db.state.Load()
	return db.getImmutable(st, key)
}

// getImmutable resolves key against one pinned immutable epoch — the
// frozen memtables, then the run stack, newest to oldest. It is the
// shared second half of Get and View.Get: the caller has already
// consulted whichever active memtable its point-in-time view names.
func (db *DB[K, V]) getImmutable(st *dbstate[K, V], key K) (val V, ok bool) {
	for _, m := range st.frozen {
		if mv, hit := m.get(key); hit {
			return liveValue(mv)
		}
	}
	for _, r := range st.runs {
		// Fences and bloom filter first: most runs cannot hold the key,
		// and proving that costs two comparisons and at most one filter
		// cache line — no descent, and (for mapped runs) no page faults.
		switch r.filterCheck(key) {
		case runSkipFence:
			db.ampFence.Add(1)
			continue
		case runSkipBloom:
			db.ampBloom.Add(1)
			continue
		}
		db.ampProbed.Add(1)
		if mv, hit := r.st.Get(key); hit {
			return liveValue(mv)
		}
	}
	var zero V
	return zero, false
}

// liveValue unwraps a version hit: a tombstone is an authoritative miss.
func liveValue[V any](mv mval[V]) (V, bool) {
	if mv.dead {
		var zero V
		return zero, false
	}
	return mv.val, true
}

// Contains reports whether key currently has a live value.
func (db *DB[K, V]) Contains(key K) bool {
	_, ok := db.Get(key)
	return ok
}

// GetBatch answers many independent point lookups at once: vals[i] and
// found[i] are what Get(keys[i]) would return. Keys the memtables decide
// (the active one under a single read lock, then the frozen ones) drop
// out first; the survivors walk the run stack newest to oldest, each run
// answering the still-pending keys with one Store.GetBatch call — the
// interleaved, shard-grouped ring kernels — and any version found, live
// or tombstone, settles its key. p is the worker count per run (values
// below 1 fall back to serial). The lookup sees the same point-in-time
// state as Get: writes issued after GetBatch starts may be missed.
func (db *DB[K, V]) GetBatch(keys []K, p int) (vals []V, found []bool) {
	db.mu.RLock()
	act := db.active
	// Load the snapshot under the same lock hold: a freeze moves the
	// active table into the snapshot under the write lock, so capturing
	// both sides in one read-lock section yields a coherent pair.
	st := db.state.Load()
	db.mu.RUnlock()
	return db.getBatchOn(act, st, keys, p)
}

// getBatchOn answers a batch of point lookups from one coherent
// (active memtable, immutable epoch) pair — the shared engine of
// DB.GetBatch and View.GetBatch. Every key in the batch is resolved
// against the same pinned dbstate, so a flush or merge racing the batch
// never hands half the keys a different run stack.
func (db *DB[K, V]) getBatchOn(act *memtable[K, V], st *dbstate[K, V], keys []K, p int) (vals []V, found []bool) {
	vals = make([]V, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found
	}
	// pending holds the indices of keys no version has decided yet;
	// every stage shrinks it in place.
	pending := make([]int, 0, len(keys))
	// The lock covers act while it is still the live active table; once
	// frozen the table is immutable and the lock is a harmless formality.
	db.mu.RLock()
	for i, k := range keys {
		if mv, hit := act.get(k); hit {
			vals[i], found[i] = liveValue(mv)
		} else {
			pending = append(pending, i)
		}
	}
	db.mu.RUnlock()
	for _, m := range st.frozen {
		if len(pending) == 0 {
			return vals, found
		}
		keep := pending[:0]
		for _, i := range pending {
			if mv, hit := m.get(keys[i]); hit {
				vals[i], found[i] = liveValue(mv)
			} else {
				keep = append(keep, i)
			}
		}
		pending = keep
	}
	sub := make([]K, 0, len(pending))
	subIdx := make([]int, 0, len(pending))
	var nProbe, nFence, nBloom uint64
	for _, r := range st.runs {
		if len(pending) == 0 {
			break
		}
		// Filter first: only keys the run's fences and bloom filter
		// cannot disprove enter the batch kernel. A filtered key stays
		// pending — an older run may still hold it.
		sub, subIdx = sub[:0], subIdx[:0]
		for _, i := range pending {
			switch r.filterCheck(keys[i]) {
			case runSkipFence:
				nFence++
			case runSkipBloom:
				nBloom++
			default:
				sub = append(sub, keys[i])
				subIdx = append(subIdx, i)
			}
		}
		if len(sub) == 0 {
			continue
		}
		nProbe += uint64(len(sub))
		br := r.st.GetBatch(sub, p)
		// Settle the probed keys that found a version (live or
		// tombstone), walking pending and the probed subset in lockstep
		// so the unprobed keys stay pending in order.
		keep := pending[:0]
		j := 0
		for _, i := range pending {
			if j < len(subIdx) && subIdx[j] == i {
				if br.Found[j] {
					vals[i], found[i] = liveValue(br.Vals[j])
					j++
					continue
				}
				j++
			}
			keep = append(keep, i)
		}
		pending = keep
	}
	if nProbe > 0 {
		db.ampProbed.Add(nProbe)
	}
	if nFence > 0 {
		db.ampFence.Add(nFence)
	}
	if nBloom > 0 {
		db.ampBloom.Add(nBloom)
	}
	return vals, found
}

// Range calls yield for every live record with lo <= key <= hi in
// ascending key order, stopping early if yield returns false. The
// iteration k-way-merges a copy of the active memtable's interval, the
// frozen memtables, and each run's fence-pruned layout stream,
// resolving versions newest-first and suppressing tombstones. It sees a
// point-in-time state: writes issued after Range starts are not
// reflected.
func (db *DB[K, V]) Range(lo, hi K, yield func(key K, val V) bool) {
	if hi < lo {
		return
	}
	db.rangeMerge(lo, hi, false, yield)
}

// Scan calls yield for every live record in ascending key order,
// stopping early if yield returns false — Range over the whole key
// space.
func (db *DB[K, V]) Scan(yield func(key K, val V) bool) {
	var zero K
	db.rangeMerge(zero, zero, true, yield)
}

func (db *DB[K, V]) rangeMerge(lo, hi K, all bool, yield func(key K, val V) bool) {
	db.mu.RLock()
	act := db.active
	// Load the snapshot under the same lock hold: a freeze moves the
	// active table into the snapshot under the write lock, so reading
	// both sides inside one read-lock section is what makes the merge a
	// true point-in-time view (copy + snapshot from the same epoch).
	st := db.state.Load()
	db.mu.RUnlock()
	db.rangeOn(act, st, lo, hi, all, yield)
}

// rangeOn runs the k-way merge over one coherent (active memtable,
// immutable epoch) pair — the shared engine of DB.Range/Scan and
// View.Range/Scan.
func (db *DB[K, V]) rangeOn(act *memtable[K, V], st *dbstate[K, V], lo, hi K, all bool, yield func(key K, val V) bool) {
	db.mu.RLock()
	keys, vals := act.collect(lo, hi, all)
	db.mu.RUnlock()
	sk, sv := make([]K, len(keys)), make([]mval[V], len(vals))
	sortByKey(par.New(db.runCfg.Workers), keys, vals, sk, sv) // outside the lock: writers don't pay for our ordering
	runs := make([]*Store[K, mval[V]], 0, 1+len(st.frozen)+len(st.runs))
	runs = append(runs, memRun(sk, sv))
	for _, m := range st.frozen {
		runs = append(runs, memRun(m.sorted(par.New(db.runCfg.Workers))))
	}
	for _, r := range st.runs {
		runs = append(runs, r.st)
	}
	kwayMerge(runs, lo, hi, all, true, func(k K, mv mval[V]) bool { return yield(k, mv.val) })
}

// Flush synchronously freezes the active memtable (if non-empty) and
// drains all pending compaction work: on return every record is in a
// run — in durable mode, in a manifest-committed segment file — the
// memtable and frozen list are empty, and the level invariant (fewer
// than Fanout runs per level) holds. Concurrent writers may of course
// repopulate the memtable immediately. The returned error is the DB's
// sticky durability error, nil in memory-only mode.
func (db *DB[K, V]) Flush() error {
	db.mu.Lock()
	//lint:allow syncorder freeze seals the WAL under db.mu by design: Flush is an explicit stop-the-world drain, not the serving write path
	db.freezeLocked(true)
	db.mu.Unlock()
	db.maintain()
	return db.err()
}

// Close shuts the DB down cleanly: it freezes the active memtable,
// flushes every frozen memtable — not just the newest — through the
// compactor, and stops the background worker, so in durable mode no
// acknowledged write is left outside a manifest-committed segment and
// the directory reopens with nothing to replay. After Close the DB stays
// readable (reads serve the final state), but Put and Delete return
// ErrClosed. Close is idempotent; it returns the DB's sticky durability
// error, nil in memory-only mode.
func (db *DB[K, V]) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return db.err()
	}
	db.closed = true
	//lint:allow syncorder freeze seals the WAL under db.mu by design: Close is shutdown, no concurrent readers left to stall
	db.freezeLocked(false)
	db.mu.Unlock()
	db.maintain() // drain ALL frozen memtables (and merges) synchronously
	db.worker.Close()
	if db.unlock != nil {
		db.unlock() // release the directory for the next opener
	}
	return db.err()
}

// err returns the sticky durability error.
func (db *DB[K, V]) err() error {
	db.errMu.Lock()
	defer db.errMu.Unlock()
	return db.ioErr
}

// setErr records the first durability failure; later writes return it
// instead of acknowledging data the log no longer protects.
func (db *DB[K, V]) setErr(err error) {
	db.errMu.Lock()
	if db.ioErr == nil {
		db.ioErr = err
	}
	db.errMu.Unlock()
}

// DBStats is a point-in-time observability snapshot of a DB's shape.
type DBStats struct {
	// MemRecords is the active memtable size in records (tombstones
	// included).
	MemRecords int
	// FrozenTables is the number of memtables frozen but not yet flushed.
	FrozenTables int
	// DiskRuns is the number of runs backed by a segment file on disk
	// (0 in memory-only mode).
	DiskRuns int
	// MappedRuns is the number of runs served zero-copy from a mapped
	// segment (cold-serve mode; always ≤ DiskRuns). Every durable run of
	// a fixed-width DB is served from its segment, so under
	// DBConfig.Mmap this equals DiskRuns wherever the platform can map
	// files; it is 0 without Mmap and for gob-encoded types.
	MappedRuns int
	// RunRecords and RunLevels describe the run stack newest-first:
	// run i holds RunRecords[i] records (tombstones included) at level
	// RunLevels[i].
	RunRecords []int
	// RunLevels — see RunRecords.
	RunLevels []int
	// RunsProbed, RunsSkippedFence, and RunsSkippedBloom decompose the
	// DB's lifetime point-lookup read amplification: for every
	// (lookup, run) pair considered by Get or GetBatch, exactly one of
	// the three counters advanced — the run was probed (a layout
	// descent), the fence interval proved the key absent, or the bloom
	// filter did. Probed / (sum of all three) is the fraction of the
	// run stack a lookup actually touches.
	RunsProbed uint64
	// RunsSkippedFence — see RunsProbed.
	RunsSkippedFence uint64
	// RunsSkippedBloom — see RunsProbed.
	RunsSkippedBloom uint64
}

// Runs returns the run count.
func (s DBStats) Runs() int { return len(s.RunRecords) }

// Stats returns the DB's current shape: memtable fill, frozen backlog,
// and the run stack. Benchmarks and tests use it to see compaction
// progress; it is cheap (no data is touched).
func (db *DB[K, V]) Stats() DBStats {
	db.mu.RLock()
	mem := db.active.len()
	db.mu.RUnlock()
	st := db.state.Load()
	stats := DBStats{
		MemRecords:       mem,
		FrozenTables:     len(st.frozen),
		RunRecords:       make([]int, len(st.runs)),
		RunLevels:        make([]int, len(st.runs)),
		RunsProbed:       db.ampProbed.Load(),
		RunsSkippedFence: db.ampFence.Load(),
		RunsSkippedBloom: db.ampBloom.Load(),
	}
	for i, r := range st.runs {
		stats.RunRecords[i] = r.st.Len()
		stats.RunLevels[i] = r.level
		if r.file != "" {
			stats.DiskRuns++
		}
		if r.st.Mapped() {
			stats.MappedRuns++
		}
	}
	return stats
}
