package store

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"implicitlayout/layout"
)

// crashDB simulates a process crash: the background compactor stops and
// the active log's mapping and file handle are dropped WITHOUT cutting
// the log at its last frame, flushing memtables, writing the manifest,
// or deleting logs — exactly the state a kill -9 leaves on disk (every
// acked append was copied into the log's shared mapping, so it is in
// the OS page cache / file already, followed by the reserved zero
// fill). The in-memory DB is unusable after. It returns the path and
// logical end of the active log, or "" when there is none.
func crashDB[K cmp.Ordered, V any](db *DB[K, V]) (wal string, end int64) {
	db.worker.Close() // an in-flight flush may complete first: a valid crash point
	db.mu.Lock()
	db.closed = true
	if w := db.wal; w != nil {
		wal, end = w.path, w.app.Size()
		w.app.Unmap() // a dead process's mapping goes with it; the fill stays
		w.f.Close()   // drop the handle; the file keeps what was written
		db.wal = nil
	}
	db.mu.Unlock()
	if db.unlock != nil {
		db.unlock() // a dead process releases its flock
	}
	return wal, end
}

func listFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDBCrashRecovery writes a batch across segments, frozen tables,
// and the active memtable, simulates a crash, reopens the directory,
// and verifies every acknowledged record — including overwrites and
// tombstones — is served exactly as acked. Every layout goes through
// the full cycle: recovery replays the WAL into segments encoded with
// the configured layout, so each on-disk kind (including the
// page-aligned hier frames) must survive crash → reopen → clean close.
func TestDBCrashRecovery(t *testing.T) {
	for _, kind := range append(layout.Kinds(), layout.Sorted) {
		t.Run(kind.String(), func(t *testing.T) {
			testDBCrashRecovery(t, kind)
		})
	}
}

func testDBCrashRecovery(t *testing.T, kind layout.Kind) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 64, Fanout: 2,
		Store: []Option{WithLayout(kind), WithShards(2), WithB(4)}}
	db, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ref := map[uint64]string{}
	ack := func(k uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("write %d not acked: %v", k, err)
		}
	}
	for i := uint64(0); i < 300; i++ {
		v := fmt.Sprint("v", i)
		ack(i, db.Put(i, v))
		ref[i] = v
		if i == 150 {
			if err := db.Flush(); err != nil { // half the history: segments only
				t.Fatal(err)
			}
		}
	}
	for i := uint64(0); i < 300; i += 7 {
		ack(i, db.Delete(i))
		delete(ref, i)
	}
	for i := uint64(0); i < 300; i += 10 {
		v := fmt.Sprint("rewritten", i)
		ack(i, db.Put(i, v))
		ref[i] = v
	}

	crashDB(db)

	reopened, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatalf("reopening crashed directory: %v", err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.DiskRuns != st.Runs() || st.DiskRuns == 0 {
		t.Fatalf("recovered runs not all disk-backed: %+v", st)
	}
	for i := uint64(0); i < 300; i++ {
		want, live := ref[i]
		got, ok := reopened.Get(i)
		if ok != live || got != want {
			t.Fatalf("recovered Get(%d) = %q, %v; want %q, %v", i, got, ok, want, live)
		}
	}
	n := 0
	reopened.Scan(func(k uint64, v string) bool {
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("recovered Scan yielded %d=%q; reference says %q, %v", k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("recovered Scan yielded %d records, reference has %d", n, len(ref))
	}

	// Replayed logs must be gone: recovery flushed them into a segment.
	if wals := listFiles(t, dir, "wal-*.log"); len(wals) != 1 {
		t.Fatalf("after recovery: %d WAL files, want exactly the fresh active log", len(wals))
	}

	// A clean close and a third open must serve the same state with
	// nothing to replay.
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if wals := listFiles(t, dir, "wal-*.log"); len(wals) != 0 {
		t.Fatalf("after clean Close: WAL files remain: %v", wals)
	}
	third, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	for k, want := range ref {
		if got, ok := third.Get(k); !ok || got != want {
			t.Fatalf("third open Get(%d) = %q, %v; want %q", k, got, ok, want)
		}
	}
}

// TestDBTornWALTail cuts the final WAL record mid-frame — the shape a
// crash leaves when it interrupts an append — and verifies the reopen
// succeeds, serves every record before the tear, and drops only the
// torn one.
func TestDBTornWALTail(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 1 << 20} // never freezes: all records in one WAL
	db, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	wal, end := crashDB(db)

	if wals := listFiles(t, dir, "wal-*.log"); len(wals) != 1 {
		t.Fatalf("expected 1 WAL file, found %v", wals)
	}
	if err := os.Truncate(wal, end-3); err != nil { // tear the last frame
		t.Fatal(err)
	}

	reopened, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatalf("reopening with torn WAL tail: %v", err)
	}
	defer reopened.Close()
	for i := uint64(0); i < n-1; i++ {
		if v, ok := reopened.Get(i); !ok || v != fmt.Sprint("v", i) {
			t.Fatalf("record before the tear lost: Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := reopened.Get(n - 1); ok {
		t.Fatalf("the torn record was served")
	}
}

// TestDBWALCorruptMidFile flips a byte well inside the log: replay must
// stop at the damage (serving the intact prefix), Open must still
// succeed, and — unlike a benign torn tail — the damaged log must be
// preserved under a ".corrupt" suffix for inspection rather than
// silently deleted, and never replayed again.
func TestDBWALCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 1 << 20}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	wal, end := crashDB(db)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[end/2] ^= 0x20
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatalf("reopening with mid-file corruption: %v", err)
	}
	// The prefix before the damaged frame must be intact and correct.
	intact := 0
	for i := uint64(0); i < n; i++ {
		v, ok := reopened.Get(i)
		if !ok {
			break
		}
		if v != i*3 {
			t.Fatalf("recovered Get(%d) = %d, want %d", i, v, i*3)
		}
		intact++
	}
	if intact == 0 || intact == n {
		t.Fatalf("recovered %d/%d records; corruption should cost some tail but not everything", intact, n)
	}
	// The damaged log is evidence, not garbage: preserved, renamed, and
	// excluded from any future replay.
	if kept := listFiles(t, dir, "wal-*.log.corrupt"); len(kept) != 1 {
		t.Fatalf("corrupt WAL not preserved: %v", kept)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatalf("third open with a preserved .corrupt file: %v", err)
	}
	defer third.Close()
	for i := 0; i < intact; i++ {
		if v, ok := third.Get(uint64(i)); !ok || v != uint64(i)*3 {
			t.Fatalf("third open lost recovered record %d", i)
		}
	}
}

// TestDBWALCorruptMagic flips a bit inside the log's magic: the whole
// file is unreadable (nothing to recover), but the store must still
// open — preserving the file as .corrupt like any other damage — and
// its sequence number must stay pinned so no future rename can clobber
// the preserved copy.
func TestDBWALCorruptMagic(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 1 << 20}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := db.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	crashDB(db)
	wals := listFiles(t, dir, "wal-*.log")
	raw, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0x01 // damage the magic itself
	if err := os.WriteFile(wals[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatalf("magic damage made the store unopenable: %v", err)
	}
	if _, ok := reopened.Get(3); ok {
		t.Fatal("records recovered from a log whose magic was damaged")
	}
	kept := listFiles(t, dir, "wal-*.log.corrupt")
	if len(kept) != 1 {
		t.Fatalf("damaged log not preserved: %v", kept)
	}
	// The preserved file pins its sequence: another crash-and-reopen
	// cycle must not reuse it (which would clobber the .corrupt copy).
	crashDB(reopened)
	third, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if after := listFiles(t, dir, "wal-*.log.corrupt"); len(after) != 1 || after[0] != kept[0] {
		t.Fatalf("preserved corrupt log disturbed: %v -> %v", kept, after)
	}
}

// crashedLog writes n Puts of key i and value val(i) into a fresh DB
// that never freezes, crashes it and returns the directory, the active
// log's path, its logical end and its bytes, zero fill included.
func crashedLog(t *testing.T, n int, val func(uint64) string) (dir, wal string, end int64, raw []byte) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open[uint64, string](dir, DBConfig{MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(n) {
		if err := db.Put(i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	wal, end = crashDB(db)
	raw, err = os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && (int64(len(raw)) <= end || !allZero(raw[end:])) {
		t.Fatalf("crashed log of %d bytes with logical end %d does not end in zero fill", len(raw), end)
	}
	return dir, wal, end, raw
}

// reopenCrashed reopens dir after a crash and checks what it serves:
// key i as val(i) for i < served, and nothing for served <= i < n. It
// also checks the crashed log's fate: deleted, or kept as ".corrupt".
func reopenCrashed(t *testing.T, dir, wal string, n, served int, val func(uint64) string, kept bool) {
	t.Helper()
	db, err := Open[uint64, string](dir, DBConfig{MemLimit: 1 << 20})
	if err != nil {
		t.Fatalf("reopening after the crash: %v", err)
	}
	defer db.Close()
	for i := range uint64(n) {
		v, ok := db.Get(i)
		if want := int(i) < served; ok != want || (ok && v != val(i)) {
			t.Fatalf("Get(%d) = %.20q, %v; want it served: %v", i, v, ok, want)
		}
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("the crashed log is still in place after replay (%v)", err)
	}
	if _, err := os.Stat(wal + ".corrupt"); (err == nil) != kept {
		t.Fatalf("crashed log kept as .corrupt: %v, want %v", err == nil, kept)
	}
}

func shortVal(i uint64) string { return fmt.Sprint("v", i) }

// TestDBWALZeroFillCrashShapes: a writer killed between appends leaves
// its log ending in the reserved zero fill. Zeros after a whole frame
// are a clean end: every record is served and the log deleted. A frame
// copied in part, its missing bytes still zero, is torn: the records
// before it are served and the log deleted. A non-zero byte past the
// logical end is damage: every record is served, and the log is kept
// as ".corrupt". A log that holds nothing but its preamble and the fill
// replays to nothing.
func TestDBWALZeroFillCrashShapes(t *testing.T) {
	const n = 100
	t.Run("whole", func(t *testing.T) {
		dir, wal, _, _ := crashedLog(t, n, shortVal)
		reopenCrashed(t, dir, wal, n, n, shortVal, false)
	})
	t.Run("torn-in-fill", func(t *testing.T) {
		dir, wal, end, raw := crashedLog(t, n, shortVal)
		clear(raw[end-3 : end]) // the copy of the last frame stopped short
		if err := os.WriteFile(wal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenCrashed(t, dir, wal, n, n-1, shortVal, false)
	})
	t.Run("past-logical-end", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("no append mapping, so no fill")
		}
		dir, wal, end, raw := crashedLog(t, n, shortVal)
		raw[end+10] = 1
		if err := os.WriteFile(wal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenCrashed(t, dir, wal, n, n, shortVal, true)
	})
	t.Run("preamble-only", func(t *testing.T) {
		dir, wal, end, _ := crashedLog(t, 0, shortVal)
		if end != int64(len(walMagicGob)) {
			t.Fatalf("a log of no records ends at %d, want the %d-byte magic", end, len(walMagicGob))
		}
		reopenCrashed(t, dir, wal, 1, 0, shortVal, false)
	})
}

// TestDBWALGrowsPastExtents: a gob log of several MiB outgrows the
// append mapping's first reservation many times over, with frames of an
// odd length straddling every reserved boundary. A crash mid-log
// replays every record, and a freeze seals the log to exactly its
// frames.
func TestDBWALGrowsPastExtents(t *testing.T) {
	const n = 400
	big := func(i uint64) string { return fmt.Sprint(i, strings.Repeat("x", 10007)) }
	dir, wal, end, _ := crashedLog(t, n, big)
	if end < 3<<20 {
		t.Fatalf("log of %d bytes: too small to outgrow its first reservations", end)
	}
	reopenCrashed(t, dir, wal, n, n, big, false)

	w, err := createWAL[uint64, string](t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(n) {
		tag, payload, err := encodeGobRecord(i, mval[string]{val: big(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.append(tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(sealed)) != w.app.Size() {
		t.Fatalf("sealed log is %d bytes, its frames %d", len(sealed), w.app.Size())
	}
	if got, end, err := readWAL(sealed, func(uint64, mval[string]) {}); got != n || end != walClean || err != nil {
		t.Fatalf("sealed log replays %d records, end %d, %v; want %d, clean", got, end, err, n)
	}
}

// TestDBOpenRefusesSecondOpener: the directory flock must make a
// concurrent second Open fail fast instead of letting two DBs corrupt
// each other's logs and manifest; Close releases it for the next opener.
func TestDBOpenRefusesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open[int, int](dir, DBConfig{}); err == nil {
		t.Fatal("second Open of a live directory succeeded")
	}
	if err := db.Put(1, 1); err != nil { // the refused opener must not have broken the first
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer db2.Close()
	if v, ok := db2.Get(1); !ok || v != 1 {
		t.Fatalf("Get(1) = %d, %v after lock handoff", v, ok)
	}
}

// TestDBDurableCloseFlushesEverything is the durable face of the Close
// contract: several frozen tables plus an active one must all land in
// manifest-committed segments, with no logs left behind.
func TestDBDurableCloseFlushesEverything(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 8, Fanout: 4}
	db, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.worker.Close() // freeze backlog builds up with no background flushing
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.FrozenTables < 2 {
		t.Fatalf("test needs a frozen backlog, got %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.MemRecords != 0 || st.FrozenTables != 0 || st.DiskRuns != st.Runs() {
		t.Fatalf("Close left volatile layers: %+v", st)
	}
	if wals := listFiles(t, dir, "wal-*.log"); len(wals) != 0 {
		t.Fatalf("Close left WAL files: %v", wals)
	}
	// The manifest and the directory must agree exactly (no strays).
	man, found, err := readManifest(dir)
	if err != nil || !found {
		t.Fatalf("manifest after Close: %v, found=%v", err, found)
	}
	segs := listFiles(t, dir, "seg-*.seg")
	if len(segs) != len(man.Segments) {
		t.Fatalf("%d segment files on disk, manifest names %d", len(segs), len(man.Segments))
	}
	reopened, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := uint64(0); i < n; i++ {
		if v, ok := reopened.Get(i); !ok || v != fmt.Sprint("v", i) {
			t.Fatalf("after Close+Open: Get(%d) = %q, %v", i, v, ok)
		}
	}
}

// TestDBDurableConcurrentWriters hammers a durable DB from several
// goroutines (WAL rotation and background flushing racing the writers),
// crashes it, and verifies every acknowledged write is recovered. Run
// under -race this also checks the log-rotation locking.
func TestDBDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 128, Fanout: 2,
		Store: []Option{WithShards(2), WithLayout(layout.BTree), WithB(4)}}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		each    = 500
		stripe  = 1 << 20
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * stripe
			for i := uint64(0); i < each; i++ {
				if err := db.Put(base+i, base^i); err != nil {
					panic(fmt.Sprintf("writer %d: %v", w, err))
				}
				if i%5 == 0 {
					if err := db.Delete(base + i); err != nil {
						panic(fmt.Sprintf("writer %d delete: %v", w, err))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	crashDB(db)

	reopened, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for w := 0; w < writers; w++ {
		base := uint64(w) * stripe
		for i := uint64(0); i < each; i++ {
			v, ok := reopened.Get(base + i)
			if i%5 == 0 {
				if ok {
					t.Fatalf("deleted key %d resurrected as %d", base+i, v)
				}
			} else if !ok || v != base^i {
				t.Fatalf("acked write lost: Get(%d) = %d, %v; want %d", base+i, v, ok, base^i)
			}
		}
	}
}

// TestDBOpenEmptyAndReopen covers the degenerate lifecycles: an empty
// directory opens, closes, and reopens cleanly, and a crash with zero
// writes leaves a recoverable (empty) store.
func TestDBOpenEmptyAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.Get(1); ok {
		t.Fatal("empty store served a record")
	}
	crashDB(db2)
	db3, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if n := db3.Stats().Runs(); n != 0 {
		t.Fatalf("empty lifecycle grew %d runs", n)
	}
}

// unencodable has fields but exports none, which gob refuses to carry.
type unencodable struct{ secret int }

// TestDBOpenRejectsUnencodableTypes: durable mode logs every type pair
// that is not fixed-width through gob, so types gob cannot carry must
// fail at Open, not at the first Put.
func TestDBOpenRejectsUnencodableTypes(t *testing.T) {
	if _, err := Open[int, unencodable](t.TempDir(), DBConfig{}); err == nil {
		t.Fatal("Open accepted a value type gob cannot encode (no exported fields)")
	}
	if _, err := Open[int, chan int](t.TempDir(), DBConfig{}); err == nil {
		t.Fatal("Open accepted a channel value type")
	}
	// The same types are fine in memory-only mode, and struct{} (a
	// durable key set) is fine in both — gob carries empty structs.
	db, err := NewDB[int, unencodable](DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	set, err := Open[int, struct{}](t.TempDir(), DBConfig{})
	if err != nil {
		t.Fatalf("durable key-set DB refused: %v", err)
	}
	set.Put(7, struct{}{})
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDBManifestSwapDeletesObsoleteSegments drives enough flushes to
// force merges and checks the directory never accumulates segments the
// manifest does not name.
func TestDBManifestSwapDeletesObsoleteSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 16, Fanout: 2}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := db.Put(i%100, i); err != nil { // heavy overwrite: merges shrink
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	man, found, err := readManifest(dir)
	if err != nil || !found {
		t.Fatalf("manifest: %v, found=%v", err, found)
	}
	named := map[string]bool{}
	for _, s := range man.Segments {
		named[s.File] = true
	}
	for _, path := range listFiles(t, dir, "seg-*.seg") {
		if !named[filepath.Base(path)] {
			t.Fatalf("obsolete segment %s survived its manifest swap", filepath.Base(path))
		}
	}
	if len(named) != len(listFiles(t, dir, "seg-*.seg")) {
		t.Fatalf("manifest names %d segments, disk has %d", len(named), len(listFiles(t, dir, "seg-*.seg")))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDBOpenRefusesSegmentsWithoutManifest: a directory that holds
// segment files but no MANIFEST lost its authoritative segment list to
// external damage (the protocol stamps a manifest before any segment
// exists). Opening it as a fresh store would garbage-collect real data
// — it must be refused with everything left untouched.
func TestDBOpenRefusesSegmentsWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[uint64, string](dir, DBConfig{MemLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		if err := db.Put(i, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listFiles(t, dir, "seg-*.seg")
	if len(segs) == 0 {
		t.Fatal("test needs segment files")
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open[uint64, string](dir, DBConfig{}); err == nil {
		t.Fatal("Open accepted a segment-holding directory with no MANIFEST")
	}
	after := listFiles(t, dir, "seg-*.seg")
	if len(after) != len(segs) {
		t.Fatalf("refused Open still deleted segments: %d -> %d", len(segs), len(after))
	}
}

// TestDBOpenRejectsCorruptManifest: unlike a WAL tail, the manifest is
// rewritten atomically, so damage to it is real corruption and must be
// refused rather than guessed around.
func TestDBOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[int, int](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open[int, int](dir, DBConfig{}); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestDBSyncWrites smoke-tests the fsync-per-write path end to end.
func TestDBSyncWrites(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 8, SyncWrites: true}
	db, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if err := db.Put(i, fmt.Sprint("s", i)); err != nil {
			t.Fatal(err)
		}
	}
	crashDB(db)
	reopened, err := Open[uint64, string](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := uint64(0); i < 20; i++ {
		if v, ok := reopened.Get(i); !ok || v != fmt.Sprint("s", i) {
			t.Fatalf("synced write lost: Get(%d) = %q, %v", i, v, ok)
		}
	}
}

// partialV21Stream builds the byte prefix a crash mid-streaming-merge
// leaves in the segment temp file: magic, v2.1 header, and one shard's
// frames — no filter frame, no trailer. Every reader must refuse it.
func partialV21Stream(t *testing.T, finish bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := newSegWriter[uint64, uint64](&buf, buildConfig(4, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendShard([]uint64{10, 20, 30, 40},
		make([]mval[uint64], 4)); err != nil {
		t.Fatal(err)
	}
	if finish {
		if err := sw.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDBCrashMidStreamingMerge plants the two artifacts a crash during
// a streaming compaction can leave — the WriteFileAtomic temp holding a
// partial v2.1 stream (killed mid-shard-append), and a complete v2.1
// segment that was renamed into place but never committed to the
// manifest — and verifies the reopen garbage-collects both, serves
// every record from the still-live victims, and that the interrupted
// merge then reruns to completion with the same answers.
func TestDBCrashMidStreamingMerge(t *testing.T) {
	dir := t.TempDir()
	big := DBConfig{MemLimit: 300, Fanout: 100} // one run per flush, no merges yet
	db, err := Open[uint64, uint64](dir, big)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	for r := uint64(0); r < 3; r++ {
		for i := uint64(0); i < 200; i++ {
			k := r*150 + i // overlapping ranges: the merge resolves versions
			if k%11 == 0 {
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(ref, k)
			} else {
				if err := db.Put(k, k*1000+r); err != nil {
					t.Fatal(err)
				}
				ref[k] = k*1000 + r
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Runs(); got != 3 {
		t.Fatalf("setup produced %d runs, want 3", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash artifacts. The temp is what dies mid-append inside
	// WriteFileAtomic; the strays are what dies between the rename and
	// the manifest commit (complete) or mid-append if the temp had
	// already been named (torn). All three carry the v2.1 version the
	// stray-GC probe must recognize — an unknown version would refuse
	// the whole directory.
	mustWrite := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(filepath.Join(dir, ".tmp-seg-merge-crashed"), partialV21Stream(t, false))
	mustWrite(segmentPath(dir, 0xFFF0), partialV21Stream(t, false))
	mustWrite(segmentPath(dir, 0xFFF1), partialV21Stream(t, true))

	reopened, err := Open[uint64, uint64](dir, big)
	if err != nil {
		t.Fatalf("reopening after simulated merge crash: %v", err)
	}
	if got := reopened.Stats().Runs(); got != 3 {
		t.Fatalf("victims not all live after crash recovery: %d runs, want 3", got)
	}
	for _, glob := range []string{".tmp-*", "seg-000000000000fff*.seg"} {
		if left := listFiles(t, dir, glob); len(left) != 0 {
			t.Fatalf("crash artifacts survived the reopen: %v", left)
		}
	}
	for k := uint64(0); k < 500; k++ {
		want, live := ref[k]
		got, ok := reopened.Get(k)
		if ok != live || got != want {
			t.Fatalf("after crash recovery Get(%d) = (%d, %v), want (%d, %v)", k, got, ok, want, live)
		}
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	// Now let the interrupted merge actually run: reopen with a fanout
	// the three level-0 runs exceed and drain. The streamed merge must
	// produce one run serving the same records, deleted keys dropped
	// for good (the output is the oldest run).
	small := DBConfig{MemLimit: 300, Fanout: 3}
	merged, err := Open[uint64, uint64](dir, small)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if err := merged.Flush(); err != nil {
		t.Fatal(err)
	}
	st := merged.Stats()
	if st.Runs() != 1 || st.RunLevels[0] != 1 {
		t.Fatalf("merge did not compact to one level-1 run: %+v", st)
	}
	if st.RunRecords[0] != len(ref) {
		t.Fatalf("merged run holds %d records, want %d (tombstones dropped)", st.RunRecords[0], len(ref))
	}
	for k := uint64(0); k < 500; k++ {
		want, live := ref[k]
		got, ok := merged.Get(k)
		if ok != live || got != want {
			t.Fatalf("after merge Get(%d) = (%d, %v), want (%d, %v)", k, got, ok, want, live)
		}
	}
}

// TestDBFailedFlushEndsPass checks maintain's durability gate against a
// failing step: once a flush cannot write its segment, no later step of
// the same pass may commit. Three frozen tables wait on the compactor
// with a non-empty directory squatting on the second flush's segment
// path; the first flush makes level 0 over-full, the second fails, and
// a merge that ran anyway would commit a level-1 segment behind the
// failure.
func TestDBFailedFlushEndsPass(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[uint64, uint64](dir, DBConfig{MemLimit: 4, Fanout: 2, Store: []Option{WithShards(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put := func(lo uint64) {
		for k := lo; k < lo+4; k++ {
			if err := db.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.compact.Lock() // hold the compactor while two more tables freeze
	put(4)
	put(8)
	blocker := segmentPath(dir, db.nextSeq.Load()+1)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		db.compact.Unlock()
		t.Fatal(err)
	}
	db.compact.Unlock()
	if err := db.Flush(); err == nil {
		t.Fatal("Flush succeeded with a segment path blocked")
	}
	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range man.Segments {
		if seg.Level > 0 {
			t.Fatalf("MANIFEST names level-%d segment %s, committed after the failed flush", seg.Level, seg.File)
		}
	}
}
