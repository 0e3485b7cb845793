package store

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"implicitlayout/layout"
)

// v2FuzzLayouts maps the high bits of the fuzzed shard byte to a
// (layout, block capacity) pair, so one fuzz input byte steers shard
// count AND layout and the corpus explores every on-disk kind —
// including the page-aligned hier frames.
var v2FuzzLayouts = [8]struct {
	kind layout.Kind
	b    int
}{
	{layout.Sorted, 0},
	{layout.BST, 0},
	{layout.BTree, 8},
	{layout.VEB, 0},
	{layout.Hier, 8},
	{layout.BTree, 3},
	{layout.Hier, 2},
	{layout.Hier, 8},
}

// FuzzSegmentRoundTripV2 drives the raw fixed-width codec the way
// FuzzSegmentRoundTrip drives gob: fuzzer-shaped record sets over
// fixed-width keys AND values, so WriteTo writes raw v2.1 through
// segWriter with a plain payload, and the raw frames, padding, filter
// frame, and platform-contract header fields are all in play.
// Properties: encode→decode identity (heap), truncation and bit-flip
// rejection (heap — the checksum-verifying reader), and a mapped parse
// of the same bytes that either refuses or serves the identical records,
// and never panics — including on truncated and misaligned input.
func FuzzSegmentRoundTripV2(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(7))
	f.Add([]byte{0xFF}, uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0x42, 0x00, 0x13}, 100), uint8(31), uint8(255))
	// High shard bits select the layout: 4<<5 is hier/b=8, 6<<5 hier/b=2.
	f.Add(bytes.Repeat([]byte{0x42, 0x00, 0x13}, 100), uint8(4<<5|2), uint8(9))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(6<<5|1), uint8(77))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, flip uint8) {
		if len(data) == 0 {
			return
		}
		n := max(len(data)/3, 1)
		keys := make([]uint16, n)
		vals := make([]uint32, n)
		for i := 0; i < n; i++ {
			if 3*i+1 < len(data) {
				keys[i] = binary.LittleEndian.Uint16(data[3*i:])
			} else {
				keys[i] = uint16(data[3*i])
			}
			if 3*i+2 < len(data) {
				vals[i] = uint32(data[3*i+2]) * 3
			}
		}
		lay := v2FuzzLayouts[int(shards>>5)]
		st, err := Build(keys, vals,
			WithShards(int(shards%32)+1), WithLayout(lay.kind), WithB(lay.b))
		if err != nil {
			t.Fatalf("Build over fuzz records: %v", err)
		}
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		enc := buf.Bytes()

		// Round trip through the checksum-verifying heap reader.
		got, err := ReadStore[uint16, uint32](bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadStore on clean v2 stream: %v", err)
		}
		wantK, wantV := st.Export()
		gotK, gotV := got.Export()
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatalf("v2 round trip changed the records")
		}

		// The mapped parse of the same clean bytes serves identically.
		mst, err := readSegMapped[uint16, uint32](enc, plainCodec[uint32]{}, nil)
		if err != nil {
			t.Fatalf("readSegMapped on clean v2 stream: %v", err)
		}
		for _, k := range wantK {
			want, _ := st.Get(k)
			if v, ok := mst.Get(k); !ok || v != want {
				t.Fatalf("mapped Get(%d) = %d, %v; want %d", k, v, ok, want)
			}
		}

		// Truncation must be rejected by both readers.
		cut := int(flip) % len(enc)
		if _, err := ReadStore[uint16, uint32](bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("v2 segment truncated to %d/%d bytes accepted by heap reader", cut, len(enc))
		}
		if _, err := readSegMapped[uint16, uint32](enc[:cut:cut], plainCodec[uint32]{}, nil); err == nil {
			t.Fatalf("v2 segment truncated to %d/%d bytes accepted by mapped reader", cut, len(enc))
		}

		// A flipped byte must be rejected by the heap reader (every byte
		// is covered by the magic, a checksum, or structural validation).
		// The mapped reader deliberately skips bulk-array checksums, so
		// for it the property is weaker: no panic, and any store it does
		// return must still be structurally sound enough to query.
		pos := (int(flip)*131 + len(data)) % len(enc)
		bad := bytes.Clone(enc)
		bad[pos] ^= 1 | flip
		if bad[pos] == enc[pos] {
			return // the "corruption" was the identity; nothing to assert
		}
		if _, err := ReadStore[uint16, uint32](bytes.NewReader(bad)); err == nil {
			t.Fatalf("v2 segment with byte %d flipped accepted by heap reader", pos)
		}
		if bst, err := readSegMapped[uint16, uint32](bad, plainCodec[uint32]{}, nil); err == nil {
			for _, k := range wantK[:min(len(wantK), 8)] {
				bst.Get(k) // must not panic; values may legitimately differ
			}
		}
	})
}

// FuzzSegmentRoundTripV21 drives the streamable v2.1 run codec: records
// are shaped by the fuzzer, written through the streaming segment
// writer (fuzzer-chosen layout and shard sizing), and must round-trip
// identically through both the checksum-verifying heap reader and the
// mapped reader — bloom filter included. Truncation anywhere must be
// rejected by both readers, a flipped byte by the heap reader; the
// mapped reader must at minimum never panic.
func FuzzSegmentRoundTripV21(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(7))
	f.Add([]byte{0xFF}, uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0x42, 0x00, 0x13}, 100), uint8(31), uint8(255))
	f.Add(bytes.Repeat([]byte{9, 1, 0x77}, 64), uint8(4<<5|2), uint8(9))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(6<<5|1), uint8(77))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, flip uint8) {
		if len(data) == 0 {
			return
		}
		// Derive a sorted, unique record set — the segWriter contract is
		// a KeepLast merge's output. Tombstones ride on a key-derived bit
		// so the 'w' frames carry dead slots too.
		n := max(len(data)/3, 1)
		set := make(map[uint16]mval[uint32], n)
		for i := 0; i < n; i++ {
			var k uint16
			if 3*i+1 < len(data) {
				k = binary.LittleEndian.Uint16(data[3*i:])
			} else {
				k = uint16(data[3*i])
			}
			set[k] = mval[uint32]{val: uint32(k) * 3, dead: k%5 == 0}
		}
		keys := make([]uint16, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		vals := make([]mval[uint32], len(keys))
		for i, k := range keys {
			vals[i] = set[k]
		}

		lay := v2FuzzLayouts[int(shards>>5)]
		cfg := buildConfig(len(keys), []Option{
			WithShards(int(shards%32) + 1), WithLayout(lay.kind), WithB(lay.b)})
		var buf bytes.Buffer
		sw, err := newSegWriter[uint16, uint32](&buf, cfg, len(keys))
		if err != nil {
			t.Fatalf("newSegWriter: %v", err)
		}
		// AppendShard permutes in place: feed it copies, keep the sorted
		// originals as the expectation.
		target := streamShardPlan(cfg, len(keys))
		for lo := 0; lo < len(keys); lo += target {
			hi := min(lo+target, len(keys))
			if err := sw.AppendShard(slices.Clone(keys[lo:hi]), slices.Clone(vals[lo:hi])); err != nil {
				t.Fatalf("AppendShard: %v", err)
			}
		}
		if err := sw.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		enc := buf.Bytes()

		// Heap round trip: identical records, restored bloom filter.
		got, err := readRunStream[uint16, uint32](bytes.NewReader(enc), 2)
		if err != nil {
			t.Fatalf("readRunStream on clean v2.1 stream: %v", err)
		}
		gotK, gotV := got.Export()
		if !slices.Equal(gotK, keys) {
			t.Fatalf("v2.1 round trip changed the keys: %d vs %d", len(gotK), len(keys))
		}
		for i := range vals {
			if gotV[i] != vals[i] {
				t.Fatalf("v2.1 round trip changed payload %d: %+v vs %+v", i, gotV[i], vals[i])
			}
		}
		if got.bloom == nil {
			t.Fatal("v2.1 round trip lost the bloom filter")
		}
		for _, k := range keys {
			if !got.bloom.MayContain(keyHash(k)) {
				t.Fatalf("restored bloom filter reports key %d absent", k)
			}
		}
		if got.maxKey != keys[len(keys)-1] {
			t.Fatalf("v2.1 round trip maxKey = %d, want %d", got.maxKey, keys[len(keys)-1])
		}

		// The mapped parse of the same clean bytes serves identically.
		mst, err := readSegMapped[uint16, mval[uint32]](enc, runCodec[uint32]{}, nil)
		if err != nil {
			t.Fatalf("readSegMapped on clean v2.1 stream: %v", err)
		}
		if mst.bloom == nil || mst.maxKey != keys[len(keys)-1] {
			t.Fatalf("mapped v2.1 open lost filter metadata (bloom=%v maxKey=%d)", mst.bloom != nil, mst.maxKey)
		}
		for _, k := range keys[:min(len(keys), 32)] {
			want, _ := got.Get(k)
			if v, ok := mst.Get(k); !ok || v != want {
				t.Fatalf("mapped Get(%d) = %+v, %v; want %+v", k, v, ok, want)
			}
		}

		// Truncation must be rejected by both readers.
		cut := int(flip) % len(enc)
		if _, err := readRunStream[uint16, uint32](bytes.NewReader(enc[:cut]), 1); err == nil {
			t.Fatalf("v2.1 segment truncated to %d/%d bytes accepted by heap reader", cut, len(enc))
		}
		if _, err := readSegMapped[uint16, mval[uint32]](enc[:cut:cut], runCodec[uint32]{}, nil); err == nil {
			t.Fatalf("v2.1 segment truncated to %d/%d bytes accepted by mapped reader", cut, len(enc))
		}

		// A flipped byte must be rejected by the heap reader; the mapped
		// reader skips bulk-array checksums, so for it: no panic.
		pos := (int(flip)*131 + len(data)) % len(enc)
		bad := bytes.Clone(enc)
		bad[pos] ^= 1 | flip
		if bad[pos] == enc[pos] {
			return
		}
		if _, err := readRunStream[uint16, uint32](bytes.NewReader(bad), 1); err == nil {
			t.Fatalf("v2.1 segment with byte %d flipped accepted by heap reader", pos)
		}
		if bst, err := readSegMapped[uint16, mval[uint32]](bad, runCodec[uint32]{}, nil); err == nil {
			for _, k := range keys[:min(len(keys), 8)] {
				bst.Get(k) // must not panic; values may legitimately differ
			}
		}
	})
}

// FuzzSegmentRoundTrip drives the segment codec with fuzzer-shaped
// record sets and checks the three properties the durability layer
// depends on: encode→decode is the identity on the served records, a
// truncated stream is rejected, and a checksum-corrupted stream is
// rejected. The record set (keys, values, shard count) is derived from
// the fuzz input so the fuzzer explores duplicate keys, single-record
// stores, and every shard/record ratio.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(7))
	f.Add([]byte{0}, uint8(4), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x42}, 40), uint8(16), uint8(200))
	f.Add([]byte("duplicate duplicate duplicate"), uint8(3), uint8(13))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, flip uint8) {
		if len(data) == 0 {
			return
		}
		// Derive records: 2 bytes of key, 1 byte of value payload each.
		n := max(len(data)/3, 1)
		keys := make([]uint16, n)
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			var k uint16
			if 3*i+1 < len(data) {
				k = binary.LittleEndian.Uint16(data[3*i:])
			} else {
				k = uint16(data[3*i])
			}
			keys[i] = k
			if 3*i+2 < len(data) {
				vals[i] = string(data[3*i+2 : 3*i+3])
			}
		}
		st, err := Build(keys, vals, WithShards(int(shards%32)+1))
		if err != nil {
			t.Fatalf("Build over fuzz records: %v", err)
		}
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		enc := buf.Bytes()

		// Round trip: the reopened store must serve the same records.
		got, err := ReadStore[uint16, string](bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadStore on clean stream: %v", err)
		}
		wantK, wantV := st.Export()
		gotK, gotV := got.Export()
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatalf("round trip changed the records: %d vs %d", len(gotK), len(wantK))
		}
		for _, k := range wantK {
			want, _ := st.Get(k)
			if v, ok := got.Get(k); !ok || v != want {
				t.Fatalf("reopened Get(%d) = %q, %v; want %q", k, v, ok, want)
			}
		}

		// Truncation at a fuzzer-chosen point must be rejected.
		cut := int(flip) % len(enc)
		if _, err := ReadStore[uint16, string](bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("segment truncated to %d/%d bytes accepted", cut, len(enc))
		}

		// A flipped byte at a fuzzer-chosen position must be rejected:
		// every byte is covered by the magic, a frame checksum, or the
		// structural validation.
		pos := (int(flip)*131 + len(data)) % len(enc)
		bad := bytes.Clone(enc)
		bad[pos] ^= 1 | flip
		if bad[pos] == enc[pos] {
			return // the "corruption" was the identity; nothing to assert
		}
		if _, err := ReadStore[uint16, string](bytes.NewReader(bad)); err == nil {
			t.Fatalf("segment with byte %d flipped accepted", pos)
		}
	})
}
