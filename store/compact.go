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
	"implicitlayout/internal/filter"
	"implicitlayout/internal/par"
)

// maintain drains all pending background work: flush every frozen
// memtable to a level-0 run, then merge levels until each holds fewer
// than Fanout runs. It is the drain function of the DB's par.Worker and
// is also called synchronously by Flush and Close; the compact mutex
// serializes the callers, so run-stack surgery has exactly one writer.
// Writers are never blocked — each step does its expensive work (merge,
// layout, segment write) against immutable inputs and only takes db.mu
// for the final snapshot swap.
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
		did, err := db.flushOne()
		if err == nil && !did {
			did, err = db.mergeOne()
		}
		if err != nil {
			// A failed step ends the pass: the gate above must see its
			// error before any other step can commit.
			db.setErr(err)
			return
		}
		if !did {
			return
		}
	}
}

// flushOne makes the oldest frozen memtable a level-0 run and swaps it
// out of the frozen list, returning false when there is nothing to
// flush. The run is newRun over the table's sorted view with tombstones
// kept — the paper's construction primitive is the flush path.
//
// In durable mode the run is published by the manifest swap protocol:
// segment file written and fsynced first, manifest rewritten to name it
// (the commit point), in-memory state swapped, and only then is the
// flushed memtable's now-redundant WAL deleted. A crash anywhere in the
// sequence loses nothing: before the commit point the WAL still carries
// the records (the orphan segment is garbage-collected at the next
// Open); after it, the segment does (a surviving WAL replays into
// records that the newer recovery run shadows harmlessly). On error the
// records stay safe in the frozen table and its WAL.
func (db *DB[K, V]) flushOne() (bool, error) {
	st := db.state.Load()
	if len(st.frozen) == 0 {
		return false, nil
	}
	m := st.frozen[len(st.frozen)-1] // oldest: flush order preserves run recency
	fresh, err := db.newRun([]*Store[K, mval[V]]{memRun(m.sorted(par.New(db.runCfg.Workers)))}, 0, false)
	if err != nil {
		return false, err
	}
	if err := db.install(append([]*run[K, V]{fresh}, st.runs...), fresh, true); err != nil {
		return false, err
	}
	if m.wal != nil {
		// The segment is committed; the WAL is redundant — but a WAL
		// that refuses deletion is NOT harmless garbage: left behind, a
		// future recovery would replay it into the newest run, where
		// its stale records could shadow anything committed afterwards.
		// A failed removal therefore turns the sticky error on, which
		// (via maintain's gate) freezes the on-disk state so nothing
		// newer can ever land behind the stale log.
		err := os.Remove(m.wal.path)
		m.wal = nil
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return true, fmt.Errorf("store: removing flushed WAL: %w", err)
		}
	}
	return true, nil
}

// mergeOne merges the oldest Fanout runs of the shallowest over-full
// level (>= Fanout runs) into one run of the next level, returning false
// when every level is within bounds (see overFullLevel). A merge that
// consumes the oldest run drops tombstones too — nothing older exists
// for them to shadow.
//
// Durable mode follows the same swap protocol as flushOne: merged
// segment written first, manifest rewritten without the victims (the
// commit point), state swapped, victims' files deleted last.
func (db *DB[K, V]) mergeOne() (bool, error) {
	st := db.state.Load()
	lo, hi, ok := overFullLevel(st.runs, db.cfg.Fanout)
	if !ok {
		return false, nil
	}
	victims := make([]*Store[K, mval[V]], hi-lo)
	for i, v := range st.runs[lo:hi] {
		victims[i] = v.st
	}
	fresh, err := db.newRun(victims, st.runs[lo].level+1, hi == len(st.runs))
	if err != nil {
		return false, err // victims stay live; merge retries after the error clears
	}

	// The post-merge run stack: victims [lo, hi) replaced by the merged
	// run, or by nothing when every record compacted away.
	nr := make([]*run[K, V], 0, len(st.runs)-(hi-lo)+1)
	nr = append(nr, st.runs[:lo]...)
	if fresh != nil {
		nr = append(nr, fresh)
	}
	nr = append(nr, st.runs[hi:]...)
	if err := db.install(nr, fresh, false); err != nil {
		return false, err
	}

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
	return true, nil
}

// install makes nr the run stack — the commit step flushes and merges
// share. In durable mode the manifest naming nr is rewritten first (the
// commit point); if that fails, fresh's segment is an orphan no manifest
// names and is removed. Then the snapshot swaps, dropping the oldest
// frozen memtable when the step was a flush. Only maintain mutates runs
// (compact mutex held), so nr is exact for both the manifest and the
// swap.
func (db *DB[K, V]) install(nr []*run[K, V], fresh *run[K, V], flushed bool) error {
	if db.dir != "" {
		if err := db.commitManifest(nr); err != nil {
			if fresh != nil {
				os.Remove(filepath.Join(db.dir, fresh.file)) // orphan: best-effort GC
			}
			return err
		}
	}
	db.mu.Lock()
	frozen := db.state.Load().frozen // may have grown at the front since the step began
	if flushed {
		frozen = frozen[: len(frozen)-1 : len(frozen)-1]
	}
	db.state.Store(&dbstate[K, V]{frozen: frozen, runs: nr})
	db.mu.Unlock()
	return nil
}

// errSegEmpty aborts a segment write whose every record compacted away
// (an all-tombstone merge into the oldest level): returned from the
// WriteFileAtomic callback, it makes the writer discard the temp file,
// and newRun maps it to "no run".
var errSegEmpty = errors.New("store: merge compacted to nothing")

// newRun is the DB's one run maker, behind every flush, recovery and
// merge. It runs kwayMerge over inputs (newest first; dropTombs drops
// winning tombstones), cuts the survivors into shards of
// streamShardPlan's size, lays each shard out (layShard: bloom-filled
// and permuted), and hands it to one of two sinks:
//   - a durable DB with fixed-width types streams the shards into a v2.1
//     segment inside one atomic file write, then reopens the segment
//     through readSegmentFile — so every durable run is served from its
//     segment (mapped under DBConfig.Mmap), and the step's peak heap is
//     one shard however large the inputs; a crash mid-write leaves only
//     a temp file the next Open removes;
//   - memory-only DBs and types the raw codec cannot stream keep the
//     shards on the heap as the run's Store, and a durable one then
//     writes it as a v1 segment.
//
// It returns a nil run when every record compacted away.
func (db *DB[K, V]) newRun(inputs []*Store[K, mval[V]], level int, dropTombs bool) (*run[K, V], error) {
	upper := 0
	for _, in := range inputs {
		upper += in.Len()
	}
	cfg := db.runCfg.forRecords(upper)
	target := streamShardPlan(cfg, upper)
	// cut feeds the merged stream to sink one full shard at a time. A
	// sink that keeps its shard (keep) gets fresh buffers for the next.
	cut := func(keep bool, sink func([]K, []mval[V]) error) error {
		keys, vals := make([]K, 0, target), make([]mval[V], 0, target)
		var err error
		emit := func() {
			err = sink(keys, vals)
			if keep {
				keys, vals = make([]K, 0, target), make([]mval[V], 0, target)
			} else {
				keys, vals = keys[:0], vals[:0]
			}
		}
		var zero K
		kwayMerge(inputs, zero, zero, true, dropTombs, func(k K, mv mval[V]) bool {
			if keys, vals = append(keys, k), append(vals, mv); len(keys) == target {
				emit()
			}
			return err == nil
		})
		if err == nil && len(keys) > 0 {
			emit()
		}
		return err
	}

	if db.dir != "" && db.raw {
		path := segmentPath(db.dir, db.nextSeq.Add(1)-1)
		err := blockio.WriteFileAtomic(path, func(w io.Writer) error {
			sw, err := newSegWriter[K, V](w, cfg, upper)
			if err != nil {
				return err
			}
			if err := cut(false, sw.AppendShard); err != nil {
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
			return nil, fmt.Errorf("store: writing segment: %w", err)
		}
		file := filepath.Base(path)
		st, err := db.readSegmentFile(file)
		if err != nil {
			os.Remove(path) // unreadable before it was ever live: GC, best-effort
			return nil, fmt.Errorf("store: reopening segment: %w", err)
		}
		return &run[K, V]{st: st, level: level, file: file}, nil
	}

	bloom := filter.New(upper)
	var shardKeys [][]K
	var shardVals [][]mval[V]
	cut(true, func(keys []K, vals []mval[V]) error { // the heap sink cannot fail
		layShard(cfg, bloom, keys, vals)
		shardKeys, shardVals = append(shardKeys, keys), append(shardVals, vals)
		return nil
	})
	if len(shardKeys) == 0 {
		return nil, nil
	}
	r := &run[K, V]{st: newStore(cfg, shardKeys, shardVals), level: level}
	r.st.bloom = bloom
	if db.dir != "" {
		var err error
		if r.file, err = db.writeSegment(r.st); err != nil {
			return nil, err
		}
	}
	return r, nil
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
		[]Option{WithWorkers(db.runCfg.Workers), WithMmap(db.cfg.Mmap)})
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
