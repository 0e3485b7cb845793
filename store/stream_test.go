package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"implicitlayout/internal/filter"
	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// buildConfig resolves opts over the defaults for a build of n records,
// as Build does: the run parameters the segment writer tests start from.
func buildConfig(n int, opts []Option) Config {
	c, err := newConfig(opts)
	if err != nil {
		panic(err)
	}
	return c.forRecords(n)
}

// mrec is one oracle record: a key with its payload.
type mrec[K cmp.Ordered, V any] struct {
	key K
	mv  mval[V]
}

// zipRecs pairs the parallel key and payload slices a run Export returns
// into oracle records.
func zipRecs[K cmp.Ordered, V any](keys []K, vals []mval[V]) []mrec[K, V] {
	recs := make([]mrec[K, V], len(keys))
	for i := range recs {
		recs[i] = mrec[K, V]{key: keys[i], mv: vals[i]}
	}
	return recs
}

// compactRecs resolves a merged record slice in place: the slice holds
// equal keys adjacent with the newest occurrence first (parallelMerge
// keeps the left, newer, run on ties), so keeping the first of each
// equal-key group applies first-hit-wins. When dropTombs is set,
// tombstones are dropped too.
func compactRecs[K cmp.Ordered, V any](recs []mrec[K, V], dropTombs bool) []mrec[K, V] {
	w := 0
	for i := range recs {
		if i > 0 && recs[i].key == recs[i-1].key {
			continue // shadowed by a newer occurrence
		}
		if dropTombs && recs[i].mv.dead {
			continue
		}
		recs[w] = recs[i]
		w++
	}
	return recs[:w]
}

// oracleMerge is the pre-streaming compaction algorithm, kept as the
// property-test oracle: Export every input run onto the heap, reduce
// newest-to-oldest with the parallel pair merge (left wins ties), then
// resolve first-hit-wins with compactRecs. The k-way merge must produce
// byte-for-byte the same record sequence.
func oracleMerge[K cmp.Ordered, V any](runs []*Store[K, mval[V]], dropTombs bool) []mrec[K, V] {
	r := par.New(2)
	exported := make([][]mrec[K, V], len(runs))
	for i, st := range runs {
		keys, vals := st.Export()
		exported[i] = zipRecs(keys, vals)
	}
	merged := exported[0]
	for _, older := range exported[1:] {
		dst := make([]mrec[K, V], len(merged)+len(older))
		parallelMerge(r, dst, merged, older, func(a, b mrec[K, V]) bool {
			return a.key < b.key
		})
		merged = dst
	}
	return compactRecs(merged, dropTombs)
}

// streamMerge collects the k-way merge's output over whole runs, as
// compaction runs it, for comparison.
func streamMerge[K cmp.Ordered, V any](runs []*Store[K, mval[V]], dropTombs bool) []mrec[K, V] {
	var out []mrec[K, V]
	var zero K
	kwayMerge(runs, zero, zero, true, dropTombs, func(k K, mv mval[V]) bool {
		out = append(out, mrec[K, V]{key: k, mv: mv})
		return true
	})
	return out
}

// TestStreamCompactMatchesOracle is the streaming merge's ground truth:
// across every layout, both duplicate policies a run store can be built
// with, tombstone-dropping and -keeping merges, and many random record
// sets, kwayMerge over whole-run store cursors must emit exactly the
// records the old Export + parallelMerge + compactRecs pipeline
// produced.
func TestStreamCompactMatchesOracle(t *testing.T) {
	layouts := []struct {
		kind layout.Kind
		b    int
	}{
		{layout.Sorted, 0}, {layout.BST, 0}, {layout.BTree, 4},
		{layout.VEB, 0}, {layout.Hier, 4},
	}
	for _, lay := range layouts {
		for _, dup := range []DuplicatePolicy{KeepLast, KeepAll} {
			for _, dropTombs := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/drop=%v", lay.kind, dup, dropTombs)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(0); seed < 8; seed++ {
						rng := rand.New(rand.NewPCG(seed, 99))
						nRuns := 2 + int(seed%3)
						runs := make([]*Store[uint32, mval[uint16]], nRuns)
						for i := range runs {
							n := 1 + rng.IntN(400)
							keys := make([]uint32, n)
							vals := make([]mval[uint16], n)
							for j := range keys {
								// Narrow key space: heavy cross-run overlap.
								keys[j] = rng.Uint32N(200)
								vals[j] = mval[uint16]{val: uint16(rng.Uint32())}
								if rng.IntN(4) == 0 {
									vals[j] = mval[uint16]{dead: true}
								}
							}
							st, err := Build(keys, vals,
								WithLayout(lay.kind), WithB(lay.b),
								WithShards(1+rng.IntN(5)), WithDuplicates(dup))
							if err != nil {
								t.Fatalf("seed %d run %d: Build: %v", seed, i, err)
							}
							runs[i] = st
						}
						want := oracleMerge(runs, dropTombs)
						got := streamMerge(runs, dropTombs)
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d: streaming merge diverged from oracle: %d vs %d records",
								seed, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// TestStreamCompactNewestWins pins the tie rule with a deterministic
// case: the same key in every run, the lowest-index (newest) run's
// version must win, and a newest tombstone must suppress the key (and
// vanish entirely when dropTombs is set).
func TestStreamCompactNewestWins(t *testing.T) {
	mk := func(mv mval[uint16]) *Store[uint32, mval[uint16]] {
		st, err := Build([]uint32{7}, []mval[uint16]{mv})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	runs := []*Store[uint32, mval[uint16]]{
		mk(mval[uint16]{dead: true}),
		mk(mval[uint16]{val: 1}),
		mk(mval[uint16]{val: 2}),
	}
	if got := streamMerge(runs, false); len(got) != 1 || !got[0].mv.dead {
		t.Fatalf("keep-tombstones merge = %+v, want one tombstone", got)
	}
	if got := streamMerge(runs, true); len(got) != 0 {
		t.Fatalf("drop-tombstones merge = %+v, want empty", got)
	}
	// Reorder: newest is now val=2.
	runs = []*Store[uint32, mval[uint16]]{runs[2], runs[0], runs[1]}
	got := streamMerge(runs, true)
	if len(got) != 1 || got[0].mv.val != 2 {
		t.Fatalf("merge = %+v, want the newest run's value 2", got)
	}
}

// TestStoreCursorOrder checks the merge's input half in isolation: a
// storeCursor must yield every record of a multi-shard permuted store
// in ascending key order, payloads attached to the right keys — from
// the start, from a Seek into the middle of a shard, and from a Seek
// into the gap between two shards' key ranges.
func TestStoreCursorOrder(t *testing.T) {
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		rng := rand.New(rand.NewPCG(5, uint64(kind)))
		n := 1000
		keys := make([]uint32, n)
		vals := make([]mval[uint16], n)
		for i := range keys {
			keys[i] = 2 * (rng.Uint32() >> 1) // even keys: every odd key is a gap
			vals[i] = mval[uint16]{val: uint16(keys[i] >> 7)}
		}
		st, err := Build(keys, vals, WithLayout(kind), WithB(4), WithShards(7))
		if err != nil {
			t.Fatal(err)
		}
		wantK, wantV := st.Export()
		// The last key of shard 3 + 1 falls between shards 3 and 4.
		gap := st.GlobalOffset(4) - 1
		from := []struct {
			name string
			lo   uint32
			rank int // rank of the first record read
		}{
			{"start", 0, 0},
			{"mid-shard", wantK[st.GlobalOffset(2)+st.ShardLen(2)/2], st.GlobalOffset(2) + st.ShardLen(2)/2},
			{"fence gap", wantK[gap] + 1, gap + 1},
		}
		for _, f := range from {
			var c storeCursor[uint32, mval[uint16]]
			c.seek(st, f.lo, wantK[len(wantK)-1], f.name == "start")
			i := f.rank
			for ; c.ok; i++ {
				if c.key != wantK[i] || c.val != wantV[i] {
					t.Fatalf("%v from %s: record %d = (%d, %+v), want (%d, %+v)",
						kind, f.name, i, c.key, c.val, wantK[i], wantV[i])
				}
				c.advance()
			}
			if i != len(wantK) {
				t.Fatalf("%v from %s: cursor stopped at record %d of %d", kind, f.name, i, len(wantK))
			}
		}
	}
}

// TestSegWriterMatchesBuild writes one record set two ways — streamed
// through segWriter and built + serialized whole — and reopens both:
// the streamed segment must serve the same records, restore its bloom
// filter, and recover the same min/max fence metadata.
func TestSegWriterMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	n := 5000
	set := make(map[uint64]mval[uint64], n)
	for len(set) < n {
		k := rng.Uint64N(1 << 40)
		set[k] = mval[uint64]{val: k * 3, dead: k%9 == 0}
	}
	keys := make([]uint64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]mval[uint64], n)
	for i, k := range keys {
		vals[i] = set[k]
	}

	cfg := buildConfig(n, []Option{WithLayout(layout.VEB), WithShards(4)})
	var buf bytes.Buffer
	sw, err := newSegWriter[uint64, uint64](&buf, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	target := streamShardPlan(cfg, n)
	for lo := 0; lo < n; lo += target {
		hi := min(lo+target, n)
		if err := sw.AppendShard(slices.Clone(keys[lo:hi]), slices.Clone(vals[lo:hi])); err != nil {
			t.Fatalf("AppendShard: %v", err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	got, err := readRunStream[uint64, uint64](bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatalf("reopening streamed segment: %v", err)
	}
	gotK, gotV := got.Export()
	if !slices.Equal(gotK, keys) {
		t.Fatalf("streamed segment serves %d keys, want %d", len(gotK), len(keys))
	}
	for i := range vals {
		if gotV[i] != vals[i] {
			t.Fatalf("payload %d = %+v, want %+v", i, gotV[i], vals[i])
		}
	}
	if got.fences[0] != keys[0] || got.maxKey != keys[n-1] {
		t.Fatalf("fence metadata [%d, %d], want [%d, %d]", got.fences[0], got.maxKey, keys[0], keys[n-1])
	}
	if got.bloom == nil {
		t.Fatal("streamed segment lost its bloom filter")
	}
	for _, k := range keys {
		if !got.bloom.MayContain(keyHash(k)) {
			t.Fatalf("bloom filter false negative for key %d", k)
		}
	}
}

// TestSegWriterErrors pins the writer's contract violations: appending
// after Finish, empty shards, mismatched slices, double Finish, and
// Finish with no shards must all error rather than corrupt the stream.
func TestSegWriterErrors(t *testing.T) {
	cfg := buildConfig(8, nil)
	var buf bytes.Buffer
	sw, err := newSegWriter[uint64, uint64](&buf, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendShard(nil, nil); err == nil {
		t.Fatal("AppendShard accepted an empty shard")
	}
	if err := sw.AppendShard([]uint64{1, 2}, []mval[uint64]{{}}); err == nil {
		t.Fatal("AppendShard accepted mismatched slices")
	}
	if err := sw.Finish(); err == nil {
		t.Fatal("Finish accepted a segment with no shards")
	}
	var buf2 bytes.Buffer
	sw2, err := newSegWriter[uint64, uint64](&buf2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw2.AppendShard([]uint64{1}, []mval[uint64]{{val: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
	if err := sw2.AppendShard([]uint64{3}, []mval[uint64]{{}}); err == nil {
		t.Fatal("AppendShard after Finish accepted")
	}
	// A writer for a non-fixed-width type must refuse up front.
	if _, err := newSegWriter[string, uint64](&buf, cfg, 8); err == nil {
		t.Fatal("newSegWriter accepted a string key type")
	}
}

// TestStreamShardPlan pins the shard sizing rule: the configured shard
// count governs small merges, the per-shard cap governs large ones.
func TestStreamShardPlan(t *testing.T) {
	cfg := Config{Shards: 4}
	if got := streamShardPlan(cfg, 1000); got != 250 {
		t.Fatalf("small merge target = %d, want 250", got)
	}
	big := 10 * maxStreamShardRecs
	if got := streamShardPlan(cfg, big); got > maxStreamShardRecs {
		t.Fatalf("large merge target = %d, over the %d cap", got, maxStreamShardRecs)
	}
	if got := streamShardPlan(Config{}, 0); got != 1 {
		t.Fatalf("empty merge target = %d, want 1", got)
	}
}

// TestStreamMergeHeapBound checks the streamed merge's memory claim:
// peak merge heap is O(one output shard) plus the output's bloom
// filter, not O(merged run). Eight strided, fully overlapping level-0
// runs are served mapped, so the inputs live in the page cache, and one
// 8-way merge is driven by Flush while a goroutine samples HeapAlloc.
// A merge that buffered its whole output would grow the heap by at
// least the merged run's payload on top of the filter; the streamed one
// must stay under half of it.
func TestStreamMergeHeapBound(t *testing.T) {
	const runs = 8
	n := 1 << 14 // preload Puts dominate the run time, most of all under -race
	dir := t.TempDir()
	opts := []Option{WithShards(64)}
	// Fanout above the run count: the preload must leave the level-0
	// stack intact for the measured merge to consume.
	db, err := Open[uint64, uint64](dir, DBConfig{MemLimit: 2 * n, Fanout: runs + 1, Store: opts})
	if err != nil {
		t.Fatal(err)
	}
	// Run r holds keys {i*runs + r}, so every run spans the whole key
	// range and the merge interleaves all inputs.
	for r := 0; r < runs; r++ {
		for i := 0; i < n; i++ {
			k := uint64(i*runs + r)
			if err := db.Put(k, ^k); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open[uint64, uint64](dir, DBConfig{MemLimit: 2 * n, Fanout: runs, Mmap: true, Store: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Stats().Runs(); got != runs {
		t.Fatalf("preload left %d runs, want %d", got, runs)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var hi uint64
		for {
			runtime.ReadMemStats(&ms)
			hi = max(hi, ms.HeapAlloc)
			select {
			case <-stop:
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	err = db.Flush() // level 0 is over-full: drives the 8-way merge
	close(stop)
	hi := <-peak
	if err != nil {
		t.Fatal(err)
	}

	total := runs * n
	if got := db.Stats().Runs(); got != 1 {
		t.Fatalf("merge left %d runs, want 1", got)
	}
	// The merged run stores a key array and a run-payload array (value
	// plus tombstone flag) per shard: the bytes a merge that buffered its
	// output would hold.
	payload := uint64(total) * uint64(8+reflect.TypeFor[mval[uint64]]().Size())
	// The filter is O(records) by design, and sealing and reopening the
	// segment hold up to eight copies of it at once: the writer's filter,
	// its Marshal, gob's buffer and the bytes.Buffer it grows, and the
	// frame on write; gob's read buffer, the decoded slice and the
	// unmarshalled filter on reopen.
	filterBytes := uint64(filter.New(total).Bytes())
	limit := payload/2 + 8*filterBytes
	growth := hi - min(hi, base)
	t.Logf("merge of %d records: heap grew %d bytes; merged payload %d bytes, filter %d bytes",
		total, growth, payload, filterBytes)
	if growth >= limit {
		t.Errorf("merge heap grew %d bytes: want < %d (half the %d-byte merged payload plus eight %d-byte filter copies)",
			growth, limit, payload, filterBytes)
	}
	k := uint64(0)
	db.Scan(func(key, v uint64) bool {
		if key != k || v != ^k {
			t.Fatalf("merged record %d = (%d, %d), want (%d, %d)", k, key, v, k, ^k)
		}
		k++
		return true
	})
	if k != uint64(total) {
		t.Fatalf("merged run holds %d records, want %d", k, total)
	}
}
