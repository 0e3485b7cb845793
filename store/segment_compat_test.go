package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/rawfmt"
	"implicitlayout/layout"
)

// The golden segments in testdata/seg were written by the writers of
// earlier builds — v1 gob, v2 raw, and the buffered v2.1 run writer —
// over one closed-form record set: key i*7919 mod 1009 for i < 500
// (distinct, since 1009 is prime), plain value 3k+1 (or "v<k>" for the
// gob files), and for run segments a tombstone on every key divisible
// by 7. Every file is built with the options noted in its case below.
const (
	goldenRecords = 500
	goldenModulus = 1009
)

func goldenKeys() []uint64 {
	keys := make([]uint64, goldenRecords)
	for i := range keys {
		keys[i] = uint64(i * 7919 % goldenModulus)
	}
	return keys
}

func goldenVal(k uint64) uint64     { return 3*k + 1 }
func goldenStr(k uint64) string     { return fmt.Sprint("v", k) }
func goldenDead(k uint64) bool      { return k%7 == 0 }
func goldenPath(name string) string { return filepath.Join("testdata", "seg", name) }

func goldenRun[V any](val func(uint64) V) func(uint64) mval[V] {
	return func(k uint64) mval[V] {
		if goldenDead(k) {
			return mval[V]{dead: true}
		}
		return mval[V]{val: val(k)}
	}
}

// checkGolden opens one golden segment on the heap and — when mappable
// — mapped, and checks every record, hits and misses, the recovered
// maxKey, and the presence (and soundness) of the bloom filter against
// the closed form. want is nil for key sets.
func checkGolden[V comparable](t *testing.T, open func(mmap bool) (*Store[uint64, V], error), want func(uint64) V, mappable, hasBloom bool) {
	t.Helper()
	sorted := slices.Sorted(slices.Values(goldenKeys()))
	for _, mmap := range []bool{false, true} {
		st, err := open(mmap)
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		if wantMapped := mmap && mappable && mmapio.Supported; st.Mapped() != wantMapped {
			t.Fatalf("mmap=%v: Mapped() = %v, want %v", mmap, st.Mapped(), wantMapped)
		}
		gotK, gotV := st.Export()
		if !slices.Equal(gotK, sorted) {
			t.Fatalf("mmap=%v: Export holds %d keys, want the %d golden keys", mmap, len(gotK), len(sorted))
		}
		for i, k := range sorted {
			if want != nil && gotV[i] != want(k) {
				t.Fatalf("mmap=%v: Export value of key %d = %v, want %v", mmap, k, gotV[i], want(k))
			}
		}
		hit := 0
		for k := uint64(0); k < goldenModulus+10; k++ {
			v, ok := st.Get(k)
			isKey := hit < len(sorted) && sorted[hit] == k
			if ok != isKey || (ok && want != nil && v != want(k)) {
				t.Fatalf("mmap=%v: Get(%d) = %v, %v; key present: %v", mmap, k, v, ok, isKey)
			}
			if isKey {
				hit++
			}
		}
		if st.maxKey != sorted[len(sorted)-1] {
			t.Fatalf("mmap=%v: maxKey = %d, want %d", mmap, st.maxKey, sorted[len(sorted)-1])
		}
		if (st.bloom != nil) != hasBloom {
			t.Fatalf("mmap=%v: bloom filter present = %v, want %v", mmap, st.bloom != nil, hasBloom)
		}
		for _, k := range sorted {
			if hasBloom && !st.bloom.MayContain(keyHash(k)) {
				t.Fatalf("mmap=%v: bloom filter reports key %d absent", mmap, k)
			}
		}
	}
}

func openGoldenPlain[V any](name string) func(bool) (*Store[uint64, V], error) {
	return func(mmap bool) (*Store[uint64, V], error) {
		return OpenStore[uint64, V](goldenPath(name), WithMmap(mmap))
	}
}

func openGoldenRun[V any](name string) func(bool) (*Store[uint64, mval[V]], error) {
	return func(mmap bool) (*Store[uint64, mval[V]], error) {
		return openSegFile[uint64, mval[V]](goldenPath(name), runCodec[V]{}, []Option{WithMmap(mmap)})
	}
}

// TestSegmentGoldenCompat pins read compatibility with every segment
// version and writer of earlier builds, and byte-for-byte write
// compatibility of v2.1 runs.
func TestSegmentGoldenCompat(t *testing.T) {
	if rawfmt.HostEndian() != "little" {
		t.Skip("the golden raw segments hold little-endian arrays")
	}
	t.Run("v1-plain", func(t *testing.T) { // VEB, 3 shards, string values
		checkGolden(t, openGoldenPlain[string]("v1-plain.seg"), goldenStr, false, false)
	})
	t.Run("v1-run", func(t *testing.T) { // BTree B=4, 3 shards, string values
		checkGolden(t, openGoldenRun[string]("v1-run.seg"), goldenRun(goldenStr), false, false)
	})
	t.Run("v2-btree", func(t *testing.T) { // BTree B=8, 3 shards
		checkGolden(t, openGoldenPlain[uint64]("v2-btree.seg"), goldenVal, true, false)
	})
	t.Run("v2-hier", func(t *testing.T) { // Hier B=8, 2 shards: 4096-byte pads
		checkGolden(t, openGoldenPlain[uint64]("v2-hier.seg"), goldenVal, true, false)
	})
	t.Run("v2-set", func(t *testing.T) { // BST, 3 shards, keys only
		checkGolden(t, openGoldenPlain[struct{}]("v2-set.seg"), nil, true, false)
	})
	t.Run("v2-run", func(t *testing.T) { // VEB, 3 shards
		checkGolden(t, openGoldenRun[uint64]("v2-run.seg"), goldenRun(goldenVal), true, false)
	})
	t.Run("v21-run", func(t *testing.T) { // BTree B=4, 4 shards, bloom filter
		checkGolden(t, openGoldenRun[uint64]("v21-run.seg"), goldenRun(goldenVal), true, true)
	})
	t.Run("v21-run-bytes", goldenV21Bytes)
}

// goldenV21Bytes rebuilds the golden v2.1 run from the closed form with
// the same options and requires it to serialize to exactly the golden
// bytes. encoding/gob numbers the wire types it describes process-wide,
// in first-use order, so a gob frame's bytes depend on what the process
// encoded before it: the golden file was written by a fresh process
// whose first gob use was that segment, and the write here runs in a
// fresh child process for the same reason.
func goldenV21Bytes(t *testing.T) {
	if out := os.Getenv("STORE_GOLDEN_V21_OUT"); out != "" {
		keys := goldenKeys()
		vals := make([]mval[uint64], len(keys))
		for i, k := range keys {
			vals[i] = goldenRun(goldenVal)(k)
		}
		st, err := Build(keys, vals, WithShards(4), WithLayout(layout.BTree), WithB(4))
		if err != nil {
			t.Fatal(err)
		}
		st.bloom = runBloom(slices.Sorted(slices.Values(keys)))
		var buf bytes.Buffer
		if _, err := writeRunStream(&buf, st); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	out := filepath.Join(t.TempDir(), "v21-run.seg")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSegmentGoldenCompat$/^v21-run-bytes$")
	cmd.Env = append(os.Environ(), "STORE_GOLDEN_V21_OUT="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child writer: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath("v21-run.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("v2.1 run serializes to %d bytes that differ from the %d golden bytes", len(got), len(golden))
	}
}

// TestOpenStoreRefusesTrailingBytes: a segment file holds exactly one
// segment, so both file opens — heap and mapped — refuse bytes after
// the trailer, for the raw and the gob format alike.
func TestOpenStoreRefusesTrailingBytes(t *testing.T) {
	path := writeStoreFile(t, buildFixedRandom(t, 1000))
	spath := filepath.Join(t.TempDir(), "str.seg")
	sst, _, _ := buildRandom(t, 300)
	var sbuf bytes.Buffer
	if _, err := sst.WriteTo(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, sbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, spath} {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, mmap := range []bool{false, true} {
		if _, err := OpenStore[int64, uint64](path, WithMmap(mmap)); err == nil {
			t.Errorf("mmap=%v: raw segment with a trailing byte opened", mmap)
		}
		if _, err := OpenStore[uint64, string](spath, WithMmap(mmap)); err == nil {
			t.Errorf("mmap=%v: gob segment with a trailing byte opened", mmap)
		}
	}
}

// TestReadStoreStopsAtTrailer: ReadStore consumes one segment and
// leaves the rest of the stream unread, so two segments written back to
// back read back with two calls.
func TestReadStoreStopsAtTrailer(t *testing.T) {
	first := buildFixedRandom(t, 300, WithShards(2))
	second := buildFixedRandom(t, 700, WithShards(3), WithLayout(layout.Hier), WithB(4))
	var buf bytes.Buffer
	for _, st := range []*Store[int64, uint64]{first, second} {
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for _, want := range []*Store[int64, uint64]{first, second} {
		got, err := ReadStore[int64, uint64](r)
		if err != nil {
			t.Fatal(err)
		}
		assertStoreParity(t, want, got, want.Len())
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after both segments", r.Len())
	}
}

// reframeHeader returns seg, a complete segment, with its header frame
// decoded, passed to mutate and re-encoded. Every other frame is copied
// verbatim, so only the header can make a reader refuse the result.
func reframeHeader(t *testing.T, seg []byte, mutate func(h *segHeader)) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString(segMagic)
	bw := blockio.NewWriter(&out)
	for off := len(segMagic); off < len(seg); {
		tag, payload, next, err := blockio.Frame(seg, off, true)
		if err != nil {
			t.Fatal(err)
		}
		if tag == tagSegHeader {
			var hdr segHeader
			if err := decodeGob(payload, tagSegHeader, &hdr); err != nil {
				t.Fatal(err)
			}
			mutate(&hdr)
			err = writeGobFrame(bw, tagSegHeader, hdr)
		} else {
			err = bw.WriteBlock(tag, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	return out.Bytes()
}

// TestSegmentIgnoresAlgorithm: every build permutes with one family, so
// the header's algorithm field is written but never read. A segment
// naming a family no build knows opens, heap and mapped, and Rebuild of
// it answers like the store that wrote it.
func TestSegmentIgnoresAlgorithm(t *testing.T) {
	orig := buildFixedRandom(t, 1000, WithShards(4))
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "algorithm.seg")
	seg := reframeHeader(t, buf.Bytes(), func(h *segHeader) { h.Algorithm = 9 })
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		st, err := OpenStore[int64, uint64](path, WithMmap(mmap))
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		rb, err := st.Rebuild()
		if err != nil {
			t.Fatalf("mmap=%v: Rebuild: %v", mmap, err)
		}
		if rb.Shards() != orig.Shards() {
			t.Fatalf("mmap=%v: Rebuild made %d shards, want %d", mmap, rb.Shards(), orig.Shards())
		}
		assertStoreParity(t, orig, rb, orig.Len())
		if err := st.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentRefusesUnknownDuplicatePolicy: a header naming a duplicate
// policy no build knows is refused when the segment is read — by
// ReadStore and by both OpenStore paths — not left to fail at Rebuild.
func TestSegmentRefusesUnknownDuplicatePolicy(t *testing.T) {
	orig := buildFixedRandom(t, 1000, WithShards(4))
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	seg := reframeHeader(t, buf.Bytes(), func(h *segHeader) { h.Duplicates = 9 })
	path := filepath.Join(t.TempDir(), "duplicates.seg")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s served a segment naming duplicate policy 9", what)
		}
		if !strings.Contains(err.Error(), "duplicate policy") {
			t.Fatalf("%s refusal %q does not name the duplicate policy", what, err)
		}
	}
	_, err := ReadStore[int64, uint64](bytes.NewReader(seg))
	refused("ReadStore", err)
	for _, mmap := range []bool{false, true} {
		_, err := OpenStore[int64, uint64](path, WithMmap(mmap))
		refused(fmt.Sprintf("OpenStore(mmap=%v)", mmap), err)
	}
}
