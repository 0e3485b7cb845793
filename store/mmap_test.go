package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/mmapio"
	"implicitlayout/layout"
)

// writeStoreFile persists st to a fresh file under t.TempDir and returns
// the path.
func writeStoreFile(t *testing.T, st *Store[int64, uint64]) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func buildFixedRandom(t *testing.T, n int, opts ...Option) *Store[int64, uint64] {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(4 * n))
		vals[i] = uint64(keys[i]) * 3
	}
	st, err := Build(keys, vals, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOpenStoreParity is the heap-vs-mmap half of the parity suite:
// every query surface must answer identically whether the segment was
// decoded onto the heap or mapped, across all layouts.
func TestOpenStoreParity(t *testing.T) {
	const n = 3000
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/mmap=%v", kind, mmap), func(t *testing.T) {
				orig := buildFixedRandom(t, n, WithLayout(kind), WithShards(4), WithB(4))
				path := writeStoreFile(t, orig)
				got, err := OpenStore[int64, uint64](path, WithMmap(mmap))
				if err != nil {
					t.Fatal(err)
				}
				if want := mmap && mmapio.Supported; got.Mapped() != want {
					t.Fatalf("Mapped() = %v, want %v", got.Mapped(), want)
				}
				assertStoreParity(t, orig, got, n)
			})
		}
	}
}

// assertStoreParity checks Get, GetBatch, Predecessor, Range, and Scan
// agree between two stores over a probe set spanning hits and misses.
func assertStoreParity(t *testing.T, want, got *Store[int64, uint64], n int) {
	t.Helper()
	if got.Len() != want.Len() || got.Shards() != want.Shards() || got.Layout() != want.Layout() {
		t.Fatalf("shape differs: %d/%d records, %d/%d shards, %v/%v layout",
			got.Len(), want.Len(), got.Shards(), want.Shards(), got.Layout(), want.Layout())
	}
	probes := make([]int64, 0, 2*n)
	for k := int64(-1); k < int64(4*n+1); k += 3 {
		probes = append(probes, k)
	}
	for _, k := range probes {
		wv, wok := want.Get(k)
		gv, gok := got.Get(k)
		if wok != gok || wv != gv {
			t.Fatalf("Get(%d) = %d, %v; want %d, %v", k, gv, gok, wv, wok)
		}
		wk, wpv, wpok := want.Predecessor(k)
		gk, gpv, gpok := got.Predecessor(k)
		if wpok != gpok || wk != gk || wpv != gpv {
			t.Fatalf("Predecessor(%d) = (%d, %d, %v); want (%d, %d, %v)", k, gk, gpv, gpok, wk, wpv, wpok)
		}
	}
	wb := want.GetBatch(probes, 4)
	gb := got.GetBatch(probes, 4)
	if !slices.Equal(wb.Vals, gb.Vals) || !slices.Equal(wb.Found, gb.Found) || wb.Hits != gb.Hits {
		t.Fatalf("GetBatch differs: %d/%d hits", gb.Hits, wb.Hits)
	}
	type kv struct {
		k int64
		v uint64
	}
	collect := func(s *Store[int64, uint64], lo, hi int64, all bool) []kv {
		var out []kv
		y := func(k int64, v uint64) bool { out = append(out, kv{k, v}); return true }
		if all {
			s.Scan(y)
		} else {
			s.Range(lo, hi, y)
		}
		return out
	}
	if w, g := collect(want, 0, 0, true), collect(got, 0, 0, true); !slices.Equal(w, g) {
		t.Fatalf("Scan differs: %d vs %d records", len(g), len(w))
	}
	lo, hi := int64(n/3), int64(2*n/3)
	if w, g := collect(want, lo, hi, false), collect(got, lo, hi, false); !slices.Equal(w, g) {
		t.Fatalf("Range(%d, %d) differs: %d vs %d records", lo, hi, len(g), len(w))
	}
	wk, wv := want.Export()
	gk, gv := got.Export()
	if !slices.Equal(wk, gk) || !slices.Equal(wv, gv) {
		t.Fatalf("Export differs")
	}
}

// TestDBMmapParity is the DB half of the parity suite: a durable
// directory with overwrites, deletes, and several segments must serve
// identical Get/Range/Scan answers reopened cold in heap mode and in
// cold-serve (mmap) mode, across all tree layouts.
func TestDBMmapParity(t *testing.T) {
	const n = 4000
	for _, kind := range []layout.Kind{layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := DBConfig{
				MemLimit: 512, Fanout: 3,
				Store: []Option{WithLayout(kind), WithB(4), WithShards(2)},
			}
			db, err := Open[uint64, uint64](dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				k := uint64(rng.Intn(n))
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(ref, k)
				default:
					v := uint64(i)
					if err := db.Put(k, v); err != nil {
						t.Fatal(err)
					}
					ref[k] = v
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			heapCfg, mmapCfg := cfg, cfg
			mmapCfg.Mmap = true
			hdb, err := Open[uint64, uint64](dir+"", heapCfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := hdb.Stats(); st.MappedRuns != 0 {
				t.Fatalf("heap reopen reports %d mapped runs", st.MappedRuns)
			}
			if err := hdb.Close(); err != nil {
				t.Fatal(err)
			}
			mdb, err := Open[uint64, uint64](dir, mmapCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mdb.Close()
			if st := mdb.Stats(); mmapio.Supported && (st.DiskRuns == 0 || st.MappedRuns != st.DiskRuns) {
				t.Fatalf("cold-serve reopen: %d of %d disk runs mapped", st.MappedRuns, st.DiskRuns)
			}

			for k := uint64(0); k < n; k++ {
				wv, wok := ref[k]
				gv, gok := mdb.Get(k)
				if wok != gok || wv != gv {
					t.Fatalf("mmap Get(%d) = %d, %v; want %d, %v", k, gv, gok, wv, wok)
				}
			}
			var scanned []uint64
			prev := uint64(0)
			first := true
			mdb.Scan(func(k, v uint64) bool {
				if !first && k <= prev {
					t.Fatalf("Scan out of order: %d after %d", k, prev)
				}
				first, prev = false, k
				if ref[k] != v {
					t.Fatalf("Scan yielded (%d, %d), want value %d", k, v, ref[k])
				}
				scanned = append(scanned, k)
				return true
			})
			if len(scanned) != len(ref) {
				t.Fatalf("Scan yielded %d records, reference holds %d", len(scanned), len(ref))
			}

			// Keep writing against the mapped runs: flushes and merges must
			// read through the mappings (copy-out via Export) and the DB
			// must stay consistent while mapped and heap runs coexist.
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(n))
				v := uint64(1_000_000 + i)
				if err := mdb.Put(k, v); err != nil {
					t.Fatal(err)
				}
				ref[k] = v
			}
			if err := mdb.Flush(); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < n; k++ {
				wv, wok := ref[k]
				gv, gok := mdb.Get(k)
				if wok != gok || wv != gv {
					t.Fatalf("post-compaction Get(%d) = %d, %v; want %d, %v", k, gv, gok, wv, wok)
				}
			}
		})
	}
}

// TestDBMmapRecoversWAL: cold-serve mode still replays WALs — mapping
// only changes how manifest segments are served, not recovery.
func TestDBMmapRecoversWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 64}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := db.Put(i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: stop without flushing (the WAL keeps the records).
	crashDB(db)

	cfg.Mmap = true
	re, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := uint64(0); i < 200; i++ {
		if v, ok := re.Get(i); !ok || v != i*7 {
			t.Fatalf("after WAL recovery, Get(%d) = %d, %v; want %d", i, v, ok, i*7)
		}
	}
}

// TestMmapV1Fallback: v1 segments — whether forced (files written before
// codec v2 existed) or inherent (non-fixed-width types) — still open and
// serve correctly under a mmap request, on the heap.
func TestMmapV1Fallback(t *testing.T) {
	// A fixed-width store written in the v1 format, as a pre-v2 build
	// would have.
	orig := buildFixedRandom(t, 500, WithShards(3))
	path := filepath.Join(t.TempDir(), "v1.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeSegV1(f, orig, plainCodec[uint64]{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore[int64, uint64](path, WithMmap(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mapped() {
		t.Fatal("a v1 segment cannot be mapped, yet Mapped() is true")
	}
	assertStoreParity(t, orig, got, 500)

	// A string-valued store is v1 by nature; WriteTo must pick v1 and the
	// mmap request must degrade to a working heap open.
	keys := []uint64{3, 1, 2}
	vals := []string{"c", "a", "b"}
	sst, err := Build(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(t.TempDir(), "str.seg")
	sf, err := os.Create(spath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sst.WriteTo(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	sgot, err := OpenStore[uint64, string](spath, WithMmap(true))
	if err != nil {
		t.Fatal(err)
	}
	if sgot.Mapped() {
		t.Fatal("string-valued segment mapped")
	}
	if v, ok := sgot.Get(2); !ok || v != "b" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
}

// TestMmapKeySet: a keys-only store has no value frames at all; the v2
// format and the mapped open must both handle that shape.
func TestMmapKeySet(t *testing.T) {
	keys := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	st, err := BuildSet(keys, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := OpenStore[uint64, struct{}](path, WithMmap(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasValues() {
		t.Fatal("reopened key set reports values")
	}
	if mmapio.Supported && !got.Mapped() {
		t.Fatal("key-set segment not mapped")
	}
	for _, k := range keys {
		if !got.Contains(k) {
			t.Fatalf("mapped set lost key %d", k)
		}
	}
	if got.Contains(10) {
		t.Fatal("mapped set invented key 10")
	}
}

// TestMmapRunTombstones: a v2 run segment dumps mval structs verbatim;
// the tombstone flags must survive both the heap and the mapped reopen.
func TestMmapRunTombstones(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5}
	vals := []mval[uint64]{{val: 10}, {dead: true}, {val: 30}, {dead: true}, {val: 50}}
	st, err := Build(keys, vals, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeRunStream(f, st); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, mmap := range []bool{false, true} {
		got, err := openSegFile[uint64, mval[uint64]](path, runCodec[uint64]{}, []Option{WithMmap(mmap)})
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		for i, k := range keys {
			mv, ok := got.Get(k)
			if !ok || mv.dead != vals[i].dead || mv.val != vals[i].val {
				t.Fatalf("mmap=%v: Get(%d) = %+v, %v; want %+v", mmap, k, mv, ok, vals[i])
			}
		}
	}
}

// TestMmapExportCopyOut is the poisoned-releaser test: everything a
// compaction takes from a mapped store (Export) must own its memory, so
// that releasing the mapping — the poison: after munmap any lingering
// alias would fault or read garbage — cannot corrupt the merge.
func TestMmapExportCopyOut(t *testing.T) {
	if !mmapio.Supported {
		t.Skip("no mmap on this platform")
	}
	orig := buildFixedRandom(t, 2000, WithShards(4))
	wantK, wantV := orig.Export()
	path := writeStoreFile(t, orig)
	mapped, err := OpenStore[int64, uint64](path, WithMmap(true))
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("not mapped")
	}
	gotK, gotV := mapped.Export()
	// Poison: unmap while holding the exported slices, then delete the
	// file for good measure. If Export leaked any alias into the mapping,
	// the comparison below would fault.
	if err := mapped.Release(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatal("exported records differ from the originals")
	}
}

// TestSegmentMisalignedLength: a raw array frame whose byte length is
// not records × width must be refused by both readers, even with a
// valid checksum (the attack readGobSlice's length check covers for gob
// is covered here for raw frames).
func TestSegmentMisalignedLength(t *testing.T) {
	orig := buildFixedRandom(t, 100, WithShards(1))
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Rebuild the file, re-framing the keys frame with one extra byte —
	// checksummed correctly, so only the length check can catch it.
	var bad bytes.Buffer
	bad.WriteString(segMagic)
	bw := blockio.NewWriter(&bad)
	off := len(segMagic)
	for {
		tag, payload, next, err := blockio.Frame(full, off, true)
		if err != nil {
			break
		}
		if tag == tagSegKeys {
			payload = append(bytes.Clone(payload), 0xEE)
		}
		if err := bw.WriteBlock(tag, payload); err != nil {
			t.Fatal(err)
		}
		off = next
	}
	if _, err := ReadStore[int64, uint64](bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("heap reader accepted a misaligned raw keys frame")
	}
	if _, err := readSegMapped[int64, uint64](bad.Bytes(), plainCodec[uint64]{}, nil); err == nil {
		t.Fatal("mapped reader accepted a misaligned raw keys frame")
	}
}

// TestSegmentPlatformMismatch: v2 headers carry the endianness tag and
// element widths; a mismatch must produce a refusal naming the
// incompatibility, not garbage data.
func TestSegmentPlatformMismatch(t *testing.T) {
	orig := buildFixedRandom(t, 50, WithShards(1))
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		field  string // the words the error must contain
		mutate func(h *segHeader)
	}{
		{"endianness", "byte order", func(h *segHeader) {
			if h.Endian == "little" {
				h.Endian = "big"
			} else {
				h.Endian = "little"
			}
		}},
		{"key width", "key width", func(h *segHeader) { h.KeyWidth = 4 }},
		{"key kind", "key kind", func(h *segHeader) { h.KeyKind = int(reflect.Float64) }},
		{"value width", "value width", func(h *segHeader) { h.ValWidth = 2 }},
		{"value kind", "value kind", func(h *segHeader) { h.ValKind = int(reflect.Int64) }},
		{"unknown version", "version 99", func(h *segHeader) { h.Version = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := reframeHeader(t, buf.Bytes(), tc.mutate)
			_, err := ReadStore[int64, uint64](bytes.NewReader(enc))
			if err == nil {
				t.Fatal("heap reader served a platform-mismatched segment")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("heap reader's refusal %q does not name %q", err, tc.field)
			}
			if tc.name == "unknown version" && !errors.Is(err, errSegVersionUnknown) {
				t.Fatalf("unknown version not classified: %v", err)
			}
			_, merr := readSegMapped[int64, uint64](enc, plainCodec[uint64]{}, nil)
			if merr == nil {
				t.Fatal("mapped reader served a platform-mismatched segment")
			}
			if !strings.Contains(merr.Error(), tc.field) {
				t.Fatalf("mapped reader's refusal %q does not name %q", merr, tc.field)
			}
		})
	}
}

// TestDBRefusesUnknownStraySegment: a stray segment file with a codec
// version from the future must abort Open, not be garbage-collected —
// it may be a newer build's data.
func TestDBRefusesUnknownStraySegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[uint64, uint64](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	writeStray := func(name string, version int) {
		var buf bytes.Buffer
		buf.WriteString(segMagic)
		if err := writeGobFrame(blockio.NewWriter(&buf), tagSegHeader, segHeader{Version: version}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Future version: refused, file left in place.
	stray := "seg-00000000000000f0.seg"
	writeStray(stray, 99)
	if _, err := Open[uint64, uint64](dir, DBConfig{}); err == nil {
		t.Fatal("Open garbage-collected a future-version segment")
	}
	if _, err := os.Stat(filepath.Join(dir, stray)); err != nil {
		t.Fatalf("future-version stray was deleted: %v", err)
	}

	// Known version: a plain crashed-flush orphan, GC'd as before.
	if err := os.Remove(filepath.Join(dir, stray)); err != nil {
		t.Fatal(err)
	}
	writeStray(stray, segV1)
	db, err = Open[uint64, uint64](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat(filepath.Join(dir, stray)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("known-version stray not garbage-collected: %v", err)
	}
	if v, ok := db.Get(1); !ok || v != 2 {
		t.Fatalf("Get(1) = %d, %v after stray handling", v, ok)
	}
}

// TestSegmentV2Alignment: every raw array payload must start at a
// 64-byte-aligned stream offset — the property that makes the mapped
// views correctly aligned for any primitive.
func TestSegmentV2Alignment(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		st := buildFixedRandom(t, 501, WithShards(shards))
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		off := len(segMagic)
		for {
			tag, payload, next, err := blockio.Frame(b, off, true)
			if err != nil {
				break
			}
			if tag == tagSegKeys || tag == tagSegVals {
				if len(payload) > 0 {
					payloadOff := next - len(payload)
					if payloadOff%segAlign != 0 {
						t.Fatalf("shards=%d: frame %q payload at offset %d, not %d-aligned",
							shards, tag, payloadOff, segAlign)
					}
				}
			}
			off = next
		}
	}
}

// TestDBRunsServeFromSegments checks that every durable run of a
// fixed-width DB is served from its segment through one reader: runs
// that flushes, a merge, a reopen and a crash recovery produced are all
// disk runs, and all mapped under Mmap.
func TestDBRunsServeFromSegments(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			if mmap && !mmapio.Supported {
				t.Skip("platform cannot map files")
			}
			dir := t.TempDir()
			cfg := DBConfig{MemLimit: 64, Fanout: 4, Mmap: mmap}
			check := func(db *DB[uint64, uint64], stage string) {
				t.Helper()
				st := db.Stats()
				wantMapped := 0
				if mmap {
					wantMapped = st.Runs()
				}
				if st.DiskRuns != st.Runs() || st.MappedRuns != wantMapped {
					t.Fatalf("%s: %d runs, %d on disk, %d mapped; want %d on disk, %d mapped",
						stage, st.Runs(), st.DiskRuns, st.MappedRuns, st.Runs(), wantMapped)
				}
			}
			var next uint64
			put := func(db *DB[uint64, uint64], n int) {
				for i := 0; i < n; i++ {
					if err := db.Put(next, ^next); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}
			db, err := Open[uint64, uint64](dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Six flushes at Fanout 4: four level-0 runs merge into one
			// level-1 run, and two level-0 runs stay above it.
			for i := 0; i < 6; i++ {
				put(db, 64)
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if got := db.Stats().RunLevels; !slices.Equal(got, []int{0, 0, 1}) {
				t.Fatalf("run levels %v, want [0 0 1]", got)
			}
			check(db, "after flushes and a merge")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			if db, err = Open[uint64, uint64](dir, cfg); err != nil {
				t.Fatal(err)
			}
			check(db, "after reopen")
			put(db, 100) // one table freezes; the rest stays in the log only
			crashDB(db)
			if len(listFiles(t, dir, "wal-*.log")) == 0 {
				t.Fatal("crash left no log to recover")
			}

			if db, err = Open[uint64, uint64](dir, cfg); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			check(db, "after crash recovery")
			for k := uint64(0); k < next; k++ {
				if v, ok := db.Get(k); !ok || v != ^k {
					t.Fatalf("Get(%d) = %d, %v; want %d", k, v, ok, ^k)
				}
			}
		})
	}
}
