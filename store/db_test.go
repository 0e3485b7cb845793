package store

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"implicitlayout/internal/mmapio"
	"implicitlayout/layout"
)

// collectDB drains db.Scan into parallel slices.
func collectDB(db *DB[uint64, string]) (keys []uint64, vals []string) {
	db.Scan(func(k uint64, v string) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

func TestDBPutGetDelete(t *testing.T) {
	db, err := NewDB[uint64, string](DBConfig{MemLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, ok := db.Get(1); ok {
		t.Fatal("Get on empty DB reported a hit")
	}
	db.Put(1, "a")
	db.Put(2, "b")
	db.Put(1, "a2") // overwrite in memtable
	if v, ok := db.Get(1); !ok || v != "a2" {
		t.Fatalf("Get(1) = %q, %v; want \"a2\", true", v, ok)
	}
	db.Delete(2)
	if _, ok := db.Get(2); ok {
		t.Fatal("Get(2) after Delete reported a hit")
	}
	if db.Contains(2) {
		t.Fatal("Contains(2) after Delete")
	}
	db.Flush() // force everything into runs; semantics must not change
	if v, ok := db.Get(1); !ok || v != "a2" {
		t.Fatalf("after Flush Get(1) = %q, %v; want \"a2\", true", v, ok)
	}
	if _, ok := db.Get(2); ok {
		t.Fatal("after Flush Get(2) reported a hit; tombstone lost in flush")
	}
	db.Put(1, "a3") // newer memtable version must shadow the run
	if v, _ := db.Get(1); v != "a3" {
		t.Fatalf("Get(1) = %q, want memtable version \"a3\"", v)
	}
}

func TestDBTombstoneShadowsOlderRuns(t *testing.T) {
	db, err := NewDB[uint64, string](DBConfig{MemLimit: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	db.Put(10, "v1")
	db.Flush() // run A holds 10=v1
	db.Delete(10)
	db.Flush() // run B holds the tombstone; A still holds v1
	if _, ok := db.Get(10); ok {
		t.Fatal("tombstone in newer run failed to shadow older run")
	}
	keys, _ := collectDB(db)
	if len(keys) != 0 {
		t.Fatalf("Scan yielded %v; want nothing (deleted)", keys)
	}
}

func TestDBCompactionMergesAndDropsTombstones(t *testing.T) {
	db, err := NewDB[uint64, string](DBConfig{MemLimit: 4, Fanout: 2,
		Store: []Option{WithShards(2), WithLayout(layout.VEB)}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// 64 Puts, 32 Deletes of the even keys and 32 overwrites of the odd
	// ones fill exactly 32 memtables of 4 records. 32 is a power of
	// Fanout, and every merge takes exactly the oldest Fanout runs of a
	// level, so after Flush the stack is one level-5 run: the last merge
	// consumed the oldest run by construction, not because the
	// compactor happened to lag the writer.
	const n = 64
	for i := uint64(0); i < n; i++ {
		db.Put(i, fmt.Sprint("v", i))
	}
	for i := uint64(0); i < n; i += 2 {
		db.Delete(i)
	}
	for i := uint64(1); i < n; i += 2 {
		db.Put(i, fmt.Sprint("w", i))
	}
	db.Flush()

	st := db.Stats()
	if st.MemRecords != 0 || st.FrozenTables != 0 {
		t.Fatalf("after Flush: %+v; want empty memtable and frozen list", st)
	}
	if !slices.Equal(st.RunLevels, []int{5}) {
		t.Fatalf("run levels %v after 32 flushes at fanout 2, want [5]", st.RunLevels)
	}
	for i, lvl := range st.RunLevels {
		if i > 0 && lvl < st.RunLevels[i-1] {
			t.Fatalf("run levels not ascending: %v", st.RunLevels)
		}
	}
	// Tiered compaction with fanout 2 must have kept every level under 2
	// runs.
	count := map[int]int{}
	for _, lvl := range st.RunLevels {
		count[lvl]++
		if count[lvl] >= 2 {
			t.Fatalf("level %d holds %d runs, fanout invariant violated: %v",
				lvl, count[lvl], st.RunLevels)
		}
	}

	keys, vals := collectDB(db)
	var wantK []uint64
	var wantV []string
	for i := uint64(1); i < n; i += 2 {
		wantK = append(wantK, i)
		wantV = append(wantV, fmt.Sprint("w", i))
	}
	if !slices.Equal(keys, wantK) || !slices.Equal(vals, wantV) {
		t.Fatalf("Scan = %v/%v, want %v/%v", keys, vals, wantK, wantV)
	}

	// The deepest merge consumed the oldest run, so tombstones must be
	// physically gone: total run records == live records.
	total := 0
	for _, c := range db.Stats().RunRecords {
		total += c
	}
	if total != len(wantK) {
		t.Fatalf("runs hold %d records, want %d live (tombstones not dropped)",
			total, len(wantK))
	}
}

// TestDBCompactionShapeIndependentOfTiming: merges take exactly the
// oldest Fanout runs of a level, so the run stack after Flush is set by
// what was written, not by how far the compactor lagged. A burst, writes
// paced so the compactor keeps up, and a burst with the compactor held
// off until the end must leave identical stacks: 23 flushes at fanout 3
// (212 in base 3) are two level-0 runs, one level-1 and two level-2.
func TestDBCompactionShapeIndependentOfTiming(t *testing.T) {
	const memLimit, fanout, flushes = 4, 3, 23
	shape := func(t *testing.T, hold bool, pace time.Duration) DBStats {
		db, err := NewDB[uint64, uint64](DBConfig{MemLimit: memLimit, Fanout: fanout,
			Store: []Option{WithShards(2)}})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if hold {
			db.compact.Lock() // the compactor can flush and merge nothing until the writes end
		}
		// Every write is to a key its memtable does not hold yet, so
		// each memtable freezes after exactly memLimit writes. From the
		// third memtable on, each fourth write deletes the key put
		// seven writes earlier, so runs carry tombstones too.
		for i := uint64(0); i < memLimit*flushes; i++ {
			if i%4 == 3 && i > 7 {
				db.Delete(i - 7)
			} else {
				db.Put(i, i*i)
			}
			time.Sleep(pace)
		}
		if hold {
			db.compact.Unlock()
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		return db.Stats()
	}
	burst := shape(t, false, 0)
	if want := []int{0, 0, 1, 2, 2}; !slices.Equal(burst.RunLevels, want) {
		t.Fatalf("burst: run levels %v, want %v", burst.RunLevels, want)
	}
	for _, c := range []struct {
		name string
		hold bool
		pace time.Duration
	}{
		{"paced", false, time.Millisecond},
		{"held", true, 0},
	} {
		got := shape(t, c.hold, c.pace)
		if !slices.Equal(got.RunLevels, burst.RunLevels) || !slices.Equal(got.RunRecords, burst.RunRecords) {
			t.Fatalf("%s: runs %v at levels %v; burst left %v at %v",
				c.name, got.RunRecords, got.RunLevels, burst.RunRecords, burst.RunLevels)
		}
	}
}

func TestDBRangeMergesAllLayers(t *testing.T) {
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		opts := []Option{WithLayout(kind), WithShards(3), WithB(4)}
		t.Run(kind.String(), func(t *testing.T) {
			db, err := NewDB[uint64, string](DBConfig{MemLimit: 16, Fanout: 3, Store: opts})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkRangeMerge(t, db, func(i int) string { return fmt.Sprint("r", i) })
		})
		// Durable and mapped: merged runs are written as segments and
		// reopened as read-only mappings, so the merged Range and the
		// streamed compaction read mapped runs holding tombstones.
		t.Run(kind.String()+"/durable-mmap", func(t *testing.T) {
			db, err := Open[uint64, uint64](t.TempDir(), DBConfig{MemLimit: 16, Fanout: 3, Mmap: true, Store: opts})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkRangeMerge(t, db, func(i int) uint64 { return uint64(i) })
			if st := db.Stats(); mmapio.Supported && st.MappedRuns == 0 {
				t.Fatalf("no mapped runs after the workload: %+v", st)
			}
		})
	}
}

// checkRangeMerge drives a random Put/Delete workload with a mid-way
// Flush into db, then holds Range and Scan to a reference map across
// every layer, before and after a full compaction.
func checkRangeMerge[V comparable](t *testing.T, db *DB[uint64, V], val func(i int) V) {
	ref := map[uint64]V{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(500))
		switch rng.Intn(10) {
		case 0:
			db.Delete(k)
			delete(ref, k)
		default:
			v := val(i)
			db.Put(k, v)
			ref[k] = v
		}
		if i == 1000 {
			db.Flush()
		}
	}

	check := func(lo, hi uint64) {
		t.Helper()
		var gotK []uint64
		var gotV []V
		db.Range(lo, hi, func(k uint64, v V) bool {
			gotK = append(gotK, k)
			gotV = append(gotV, v)
			return true
		})
		var wantK []uint64
		for k := range ref {
			if k >= lo && k <= hi {
				wantK = append(wantK, k)
			}
		}
		slices.Sort(wantK)
		wantV := make([]V, len(wantK))
		for i, k := range wantK {
			wantV[i] = ref[k]
		}
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatalf("Range(%d, %d): got %d records, want %d (first diff around %v)",
				lo, hi, len(gotK), len(wantK), firstDiff(gotK, wantK))
		}
	}
	check(0, 600)   // everything
	check(100, 250) // interior
	check(499, 499) // singleton
	check(600, 700) // empty, above
	db.Flush()
	check(0, 600) // after full compaction too

	// Early exit must stop the merge cleanly.
	seen := 0
	db.Scan(func(uint64, V) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Fatalf("early-exit Scan saw %d records, want 5", seen)
	}
}

// TestDBRangeActiveSignedKeys: DB.Range and View.Range over records that
// live only in the active memtable — the per-call sort of the collected
// interval — yield every key strictly ascending, for negative int64 keys
// and for float64 keys with both zeros and both infinities.
func TestDBRangeActiveSignedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
	for i := 0; i < 3000; i++ {
		ints = append(ints, rng.Int63n(1<<20)-1<<19)
	}
	checkActiveRange(t, "int64", ints, math.MinInt64, math.MaxInt64)
	floats := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 3000; i++ {
		floats = append(floats, rng.NormFloat64()*1e6)
	}
	checkActiveRange(t, "float64", floats, math.Inf(-1), math.Inf(1))
}

func checkActiveRange[K cmp.Ordered](t *testing.T, name string, keys []K, lo, hi K) {
	t.Helper()
	db, err := NewDB[K, int](DBConfig{MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := map[K]int{}
	for i, k := range keys {
		if err := db.Put(k, i); err != nil {
			t.Fatal(err)
		}
		want[k] = i
	}
	v := db.View()
	for _, rf := range []struct {
		name string
		rng  func(lo, hi K, yield func(K, int) bool)
	}{{"DB.Range", db.Range}, {"View.Range", v.Range}} {
		var got []K
		rf.rng(lo, hi, func(k K, val int) bool {
			if len(got) > 0 && !(got[len(got)-1] < k) {
				t.Fatalf("%s %s: %v after %v", name, rf.name, k, got[len(got)-1])
			}
			if want[k] != val {
				t.Fatalf("%s %s: key %v has value %d, want %d", name, rf.name, k, val, want[k])
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d records, want %d", name, rf.name, len(got), len(want))
		}
	}
}

func firstDiff(a, b []uint64) any {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

func TestDBBackgroundFlush(t *testing.T) {
	db, err := NewDB[uint64, string](DBConfig{MemLimit: 32, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := uint64(0); i < 1000; i++ {
		db.Put(i, fmt.Sprint("v", i))
	}
	// The background worker races this check; Flush forces the backlog
	// down deterministically, then everything must be served from runs.
	db.Flush()
	st := db.Stats()
	if st.Runs() == 0 {
		t.Fatalf("no runs after 1000 writes with MemLimit 32: %+v", st)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := db.Get(i); !ok || v != fmt.Sprint("v", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
}

func TestDBConfigValidation(t *testing.T) {
	if _, err := NewDB[int, int](DBConfig{MemLimit: -1}); err == nil {
		t.Fatal("negative MemLimit accepted")
	}
	if _, err := NewDB[int, int](DBConfig{Fanout: 1}); err == nil {
		t.Fatal("Fanout 1 accepted (would merge forever)")
	}
	if _, err := NewDB[int, int](DBConfig{Store: []Option{WithLayout(layout.Kind(99))}}); err == nil {
		t.Fatal("unknown layout accepted")
	}
	// WithMmap among the run options would be silently dropped (runs are
	// served by DBConfig.Mmap), so Open refuses it and names the field.
	if _, err := Open[int, int](t.TempDir(), DBConfig{Store: []Option{WithMmap(true)}}); err == nil ||
		!strings.Contains(err.Error(), "DBConfig.Mmap") {
		t.Fatalf("WithMmap(true) in DBConfig.Store: err = %v, want one naming DBConfig.Mmap", err)
	}
	// KeepAll must be overridden, not honored: the DB is KeepLast only.
	db, err := NewDB[int, int](DBConfig{MemLimit: 2, Store: []Option{WithDuplicates(KeepAll)}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(1, 10)
	db.Put(1, 11)
	db.Put(2, 20)
	db.Flush()
	n := 0
	db.Scan(func(int, int) bool { n++; return true })
	if n != 2 {
		t.Fatalf("Scan saw %d records, want 2 (KeepAll must not leak into DB runs)", n)
	}
}

func TestDBCloseDrainsAndBlocksWrites(t *testing.T) {
	db, err := NewDB[int, int](DBConfig{MemLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if err := db.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Close must have drained every layer into runs — the active
	// memtable AND all frozen tables — so a clean shutdown never
	// strands an acknowledged write in a volatile layer.
	st := db.Stats()
	if st.MemRecords != 0 || st.FrozenTables != 0 {
		t.Fatalf("after Close: %+v; want everything flushed into runs", st)
	}
	// The DB stays readable; writes are refused.
	for k := 1; k <= 10; k++ {
		if v, ok := db.Get(k); !ok || v != k {
			t.Fatalf("after Close: Get(%d) = %d, %v", k, v, ok)
		}
	}
	if err := db.Put(11, 11); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close returned %v, want ErrClosed", err)
	}
	if err := db.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close returned %v, want ErrClosed", err)
	}
	if v, ok := db.Get(1); !ok || v != 1 {
		t.Fatalf("refused Delete still took effect: Get(1) = %d, %v", v, ok)
	}
}

// TestDBCloseFlushesAllFrozen pins the Close contract on a backlog of
// several frozen memtables: with the background worker already stopped,
// freezes pile up and only Close's own synchronous drain can flush them.
func TestDBCloseFlushesAllFrozen(t *testing.T) {
	db, err := NewDB[int, int](DBConfig{MemLimit: 4, Fanout: 64})
	if err != nil {
		t.Fatal(err)
	}
	db.worker.Close() // simulate a busy/stopped compactor: kicks are no-ops
	for k := 0; k < 20; k++ {
		if err := db.Put(k, k*k); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.FrozenTables < 2 {
		t.Fatalf("test needs a frozen backlog, got %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.MemRecords != 0 || st.FrozenTables != 0 {
		t.Fatalf("Close left unflushed layers: %+v", st)
	}
	for k := 0; k < 20; k++ {
		if v, ok := db.Get(k); !ok || v != k*k {
			t.Fatalf("after Close: Get(%d) = %d, %v; want %d", k, v, ok, k*k)
		}
	}
}

// TestDBGetAllocs pins a Get served from a flushed run at zero
// allocations, hit or miss: the run's vEB descent keeps its cursor on
// the stack.
func TestDBGetAllocs(t *testing.T) {
	db, err := Open[uint64, uint64](t.TempDir(), DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := db.Put(2*k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Runs() == 0 {
		t.Fatal("Flush left no run")
	}
	// AllocsPerRun truncates its average, so hits and misses are timed
	// apart: a miss the bloom filter rejects would hide a hit's
	// allocation.
	for _, odd := range []uint64{0, 1} {
		var k uint64
		allocs := testing.AllocsPerRun(1000, func() {
			k = (k + 7919) % n
			if _, ok := db.Get(2*k + odd); ok != (odd == 0) {
				t.Fatalf("Get(%d) = %v", 2*k+odd, ok)
			}
		})
		if allocs != 0 {
			t.Fatalf("DB.Get (odd=%d): %v allocs, want 0", odd, allocs)
		}
	}
}
