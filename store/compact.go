package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/par"
)

// maintain drains all pending background work: flush every frozen
// memtable to a level-0 run, then merge levels until each holds fewer
// than Fanout runs. It is the drain function of the DB's par.Worker and
// is also called synchronously by Flush and Close; the compact mutex
// serializes the callers, so run-stack surgery has exactly one writer.
// Writers are never blocked — each step does its expensive work (build,
// export, merge, segment write) against immutable inputs and only takes
// db.mu for the final snapshot swap.
func (db *DB[K, V]) maintain() {
	db.compact.Lock()
	defer db.compact.Unlock()
	for {
		if db.dir != "" && db.err() != nil {
			// After the first durability failure the DB stops changing
			// its on-disk state: no further segment may commit, because
			// committing newer data while e.g. an obsolete WAL refused
			// deletion could let that stale log shadow the newer
			// segment at the next recovery. Frozen tables keep serving
			// from memory, their sealed WALs keep their records safe.
			return
		}
		if db.flushOne() {
			continue
		}
		if db.mergeOne() {
			continue
		}
		return
	}
}

// flushOne builds the oldest frozen memtable into a level-0 run and
// swaps it out of the frozen list, returning false when there is nothing
// to flush. The frozen table's sorted view has unique keys, so the
// build pipeline's sort stage sees already-ordered input and the real
// cost is the parallel layout permutation — the paper's construction
// primitive is the flush path.
//
// In durable mode the run is published by the manifest swap protocol:
// segment file written and fsynced first, manifest rewritten to name it
// (the commit point), in-memory state swapped, and only then is the
// flushed memtable's now-redundant WAL deleted. A crash anywhere in the
// sequence loses nothing: before the commit point the WAL still carries
// the records (the orphan segment is garbage-collected at the next
// Open); after it, the segment does (a surviving WAL replays into
// records that the newer recovery run shadows harmlessly).
func (db *DB[K, V]) flushOne() bool {
	st := db.state.Load()
	if len(st.frozen) == 0 {
		return false
	}
	m := st.frozen[len(st.frozen)-1] // oldest: flush order preserves run recency
	newRun := &run[K, V]{st: db.buildRun(m.sorted(par.New(db.workers))), level: 0}

	if db.dir != "" {
		// Only maintain() mutates runs and we hold the compact mutex, so
		// st.runs is still current for the manifest.
		if _, err := db.persistRun(newRun, st.runs); err != nil {
			db.setErr(err)
			return false // records stay safe: in the frozen table and its WAL
		}
	}

	db.mu.Lock()
	//lint:allow snapload deliberate re-read at the swap point: db.mu is held, so this load sees the frozen entries added since the first snapshot
	cur := db.state.Load() // frozen may have grown at the front meanwhile
	ns := &dbstate[K, V]{
		frozen: cur.frozen[: len(cur.frozen)-1 : len(cur.frozen)-1],
		runs:   append([]*run[K, V]{newRun}, cur.runs...),
	}
	db.state.Store(ns)
	db.mu.Unlock()

	if m.wal != nil {
		// The segment is committed; the WAL is redundant — but a WAL
		// that refuses deletion is NOT harmless garbage: left behind, a
		// future recovery would replay it into the newest run, where
		// its stale records could shadow anything committed afterwards.
		// A failed removal therefore turns the sticky error on, which
		// (via maintain's gate) freezes the on-disk state so nothing
		// newer can ever land behind the stale log.
		if err := os.Remove(m.wal.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			db.setErr(fmt.Errorf("store: removing flushed WAL: %w", err))
		}
		m.wal = nil
	}
	return true
}

// mergeOne merges the oldest Fanout runs of the shallowest over-full
// level (>= Fanout runs) into one run of the next level, returning false
// when every level is within bounds (see overFullLevel). Each victim is
// read in key order by a store cursor over its permuted arrays (no
// Export, no heap copy of the inputs), and the DB's one k-way merge
// resolves the victims newest-first with first-hit-wins (see
// stream.go). A merge that consumes the oldest run drops tombstones too
// — nothing older exists for them to shadow. The survivors go to one of
// two sinks: a durable DB with fixed-width types writes the output
// segment shard by shard, so its peak heap is one output shard however
// large the inputs; memory-only DBs and types the raw codec cannot
// stream (string keys, struct values) collect them for one run build,
// O(output) heap.
//
// Durable mode follows the same swap protocol as flushOne: merged
// segment written first, manifest rewritten without the victims (the
// commit point), state swapped, victims' files deleted last.
func (db *DB[K, V]) mergeOne() bool {
	st := db.state.Load()
	lo, hi, ok := overFullLevel(st.runs, db.cfg.Fanout)
	if !ok {
		return false
	}
	level := st.runs[lo].level
	toLast := hi == len(st.runs) // merge output becomes the oldest run
	victims := st.runs[lo:hi]

	var newRun *run[K, V]
	var err error
	// The streamed sink writes raw v2.1, so both the key and the mval
	// payload must be fixed-width.
	if db.dir != "" && db.raw {
		newRun, err = db.mergeStreamed(victims, level+1, toLast)
	} else {
		// The in-memory sink: the merged records become one run build.
		var keys []K
		var vals []mval[V]
		mergeVictims(victims, toLast, func(k K, mv mval[V]) bool {
			keys, vals = append(keys, k), append(vals, mv)
			return true
		})
		if len(keys) > 0 { // all-tombstone merges can compact to nothing
			newRun = &run[K, V]{st: db.buildRun(keys, vals), level: level + 1}
			if db.dir != "" {
				newRun.file, err = db.writeSegment(newRun.st)
			}
		}
	}
	if err != nil {
		db.setErr(err)
		return false // victims stay live; merge retries after the error clears
	}

	// The post-merge run stack: victims [lo, hi) replaced by the merged
	// run. Only maintain() mutates runs (compact mutex held), so this
	// slice is exact for both the manifest and the snapshot swap.
	nr := make([]*run[K, V], 0, len(st.runs)-(hi-lo)+1)
	nr = append(nr, st.runs[:lo]...)
	if newRun != nil {
		nr = append(nr, newRun)
	}
	nr = append(nr, st.runs[hi:]...)
	if db.dir != "" {
		if err := db.commitManifest(nr); err != nil {
			db.setErr(err)
			if newRun != nil {
				os.Remove(filepath.Join(db.dir, newRun.file)) // orphan: best-effort GC
			}
			return false
		}
	}

	db.mu.Lock()
	//lint:allow snapload deliberate re-read at the swap point: db.mu is held, so this load sees frozen entries added since the merge began
	cur := db.state.Load() // cur.frozen may differ from st.frozen; runs cannot
	db.state.Store(&dbstate[K, V]{frozen: cur.frozen, runs: nr})
	db.mu.Unlock()

	// The manifest no longer names the victims; their files are garbage.
	// Deleting a victim that is still mapped is safe — the mapping keeps
	// its pages alive past the unlink — and the mapping itself is NOT
	// released here: a reader holding the pre-swap snapshot may still be
	// mid-Range over a victim run. The merge retains nothing of the
	// victims (it copied every survivor into the new run), so each
	// victim's mapping dies with its last reader's epoch, via the GC
	// cleanup its open registered.
	for _, victim := range st.runs[lo:hi] {
		if victim.file != "" {
			os.Remove(filepath.Join(db.dir, victim.file))
		}
	}
	return true
}

// errSegEmpty aborts a streamed merge whose every record compacted away
// (an all-tombstone merge into the oldest level): returned from the
// WriteFileAtomic callback, it makes the writer discard the temp file,
// and mergeStreamed maps it to "no output run".
var errSegEmpty = errors.New("store: merge compacted to nothing")

// mergeStreamed is the durable merge path: the k-way streaming merge
// writing its output segment shard by shard inside one atomic file
// write. The whole merge runs in the WriteFileAtomic callback, so a
// crash at any point leaves only a temp file the next Open removes —
// the victims stay live until the manifest commit that follows. On
// success the segment is reopened through the normal segment path
// (mapped in cold-serve mode), so the merged run's records live in the
// page cache, not the heap, and the merge's peak heap stays O(one
// shard) end to end. Returns (nil, nil) when the merge compacts to
// nothing.
func (db *DB[K, V]) mergeStreamed(victims []*run[K, V], level int, dropTombs bool) (*run[K, V], error) {
	upper := 0
	for _, v := range victims {
		upper += v.st.Len()
	}
	cfg := buildConfig(upper, db.runOpts)
	path := segmentPath(db.dir, db.nextSeq.Add(1)-1)
	err := blockio.WriteFileAtomic(path, func(w io.Writer) error {
		sw, err := newSegWriter[K, V](w, cfg, upper)
		if err != nil {
			return err
		}
		ss := newShardStreamer(sw, streamShardPlan(cfg, upper))
		mergeVictims(victims, dropTombs, func(k K, mv mval[V]) bool {
			err = ss.add(k, mv)
			return err == nil
		})
		if err != nil {
			return err
		}
		if err := ss.flush(); err != nil {
			return err
		}
		if sw.Records() == 0 {
			return errSegEmpty
		}
		return sw.Finish()
	})
	if errors.Is(err, errSegEmpty) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: writing merged segment: %w", err)
	}
	file := filepath.Base(path)
	st, err := db.readSegmentFile(file)
	if err != nil {
		os.Remove(path) // unreadable before it was ever live: GC, best-effort
		return nil, fmt.Errorf("store: reopening merged segment: %w", err)
	}
	return &run[K, V]{st: st, level: level, file: file}, nil
}

// mergeVictims runs the k-way merge over whole victim runs (newest
// first) into emit — the one record resolution both compaction sinks
// share.
func mergeVictims[K cmp.Ordered, V any](victims []*run[K, V], dropTombs bool, emit func(K, mval[V]) bool) {
	runs := make([]*Store[K, mval[V]], len(victims))
	for i, v := range victims {
		runs[i] = v.st
	}
	var zero K
	kwayMerge(runs, zero, zero, true, dropTombs, emit)
}

// overFullLevel returns the bounds [lo, hi) of the oldest fanout runs
// of the shallowest level holding at least fanout runs. Runs are
// newest-first and level-ascending, so each level is one contiguous band
// and its oldest runs are the band's tail. Merging exactly fanout runs —
// never the whole band a lagging compactor let pile up — makes every
// level-L run the merge of Fanout^L memtables, so once the compactor
// drains, the run stack spells the flush count in base Fanout whatever
// the timing of writes and merges.
func overFullLevel[K cmp.Ordered, V any](runs []*run[K, V], fanout int) (lo, hi int, ok bool) {
	for i := 0; i < len(runs); {
		j := i
		for j < len(runs) && runs[j].level == runs[i].level {
			j++
		}
		if j-i >= fanout {
			return j - fanout, j, true
		}
		i = j
	}
	return 0, 0, false
}

// buildRun runs the static build pipeline over sorted unique records and
// returns the servable Store. The inputs come from a frozen memtable or
// a compaction merge, so a build error is impossible by construction —
// mirroring Export, an error here panics rather than propagating an
// error path no caller could hit.
func (db *DB[K, V]) buildRun(keys []K, vals []mval[V]) *Store[K, mval[V]] {
	st, err := Build(keys, vals, db.runOpts...)
	if err != nil {
		panic("store: run build failed: " + err.Error())
	}
	// Attach the run's key filter (fences and maxKey fall out of the
	// build; the bloom must be made). The input keys are already unique
	// — memtables and merges both dedupe — so the filter is sized
	// exactly. The v2.1 segment codec persists it with the run.
	st.bloom = runBloom(keys)
	return st
}

// persistRun publishes newRun as the newest run: segment file written,
// then the manifest rewritten to name [newRun] + rest — the commit
// point shared by background flushes (flushOne) and recovery flushes
// (flushRecovered). On manifest failure the orphan segment is removed;
// newRun.file is set on success. The returned slice is the committed
// run stack.
func (db *DB[K, V]) persistRun(newRun *run[K, V], rest []*run[K, V]) ([]*run[K, V], error) {
	file, err := db.writeSegment(newRun.st)
	if err != nil {
		return nil, err
	}
	newRun.file = file
	nr := append([]*run[K, V]{newRun}, rest...)
	if err := db.commitManifest(nr); err != nil {
		os.Remove(filepath.Join(db.dir, file)) // orphan: best-effort GC
		return nil, err
	}
	return nr, nil
}

// writeSegment persists one run's Store as a new segment file — written
// to a temp file, fsynced, renamed into place, directory fsynced — and
// returns its base name. The file is not live until a manifest names it.
func (db *DB[K, V]) writeSegment(st *Store[K, mval[V]]) (string, error) {
	path := segmentPath(db.dir, db.nextSeq.Add(1)-1)
	err := blockio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := writeRunStream(w, st)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("store: writing segment: %w", err)
	}
	return filepath.Base(path), nil
}

// readSegmentFile reopens one segment as a servable run Store: mapped
// zero-copy in cold-serve mode (DBConfig.Mmap), heap-decoded otherwise.
func (db *DB[K, V]) readSegmentFile(name string) (*Store[K, mval[V]], error) {
	return openSegFile[K, mval[V]](filepath.Join(db.dir, name), runCodec[V]{},
		[]Option{WithWorkers(db.workers), WithMmap(db.cfg.Mmap)})
}

// commitManifest atomically rewrites the manifest to name exactly the
// given run stack — the commit point of every flush and merge.
func (db *DB[K, V]) commitManifest(runs []*run[K, V]) error {
	m := manifest{Segments: make([]manifestSeg, len(runs))}
	for i, r := range runs {
		m.Segments[i] = manifestSeg{File: r.file, Level: r.level}
	}
	return writeManifest(db.dir, m)
}
