package store

import (
	"cmp"
	"fmt"
	"io"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/filter"
	"implicitlayout/internal/mmapio"
	"implicitlayout/perm"
)

// segWriter is the one writer of the raw segment format: it writes v2.1
// front to back, one shard at a time, without ever holding more than one
// shard's records. Every fixed-width store reaches disk through it. A
// built store (Store.WriteTo) hands it each already-permuted shard in
// turn; the DB's run maker (newRun) hands AppendShard each shard's
// sorted records as the merged stream produces them, and the writer
// lays them out in place first — the reason a run of arbitrarily many
// records peaks at one shard of heap. Finish seals the stream with the
// filter frame (shard lengths, record count, bloom filter) and the
// trailer.
//
// E is the on-disk element type: the user value for plain segments, the
// mval wrapper for run segments. The AppendShard contract mirrors what a
// Build would have produced: each shard's keys strictly ascend (the run
// codec is KeepLast — no duplicates), successive shards ascend across
// the boundary, and no shard is empty. AppendShard permutes the caller's
// slices in place, so the caller may reuse them for the next shard once
// the call returns. A segWriter abandoned without Finish leaves a stream
// with no trailer, which every reader refuses — the crash-mid-merge
// story needs no writer-side cleanup.
type segWriter[K cmp.Ordered, E any] struct {
	bw       *blockio.Writer
	base     int64 // magic length: the frames' offset within the file
	cfg      Config
	align    int64
	hasVals  bool
	valTag   byte
	width    int // widest element: sizes the per-shard frame cap
	bloom    *filter.Bloom
	lens     []int
	records  int
	finished bool
}

// newSegWriter starts the streamed v2.1 segment of a DB run. upper is
// an upper bound on the record count (the sum of the run's inputs),
// used only to size the bloom filter AppendShard fills; overshooting it
// costs filter density, never correctness. cfg carries the run build
// parameters (layout, B, workers) the shards are permuted with.
func newSegWriter[K cmp.Ordered, V any](w io.Writer, cfg Config, upper int) (*segWriter[K, mval[V]], error) {
	return startSegWriter[K](w, cfg, runCodec[V]{}, true, filter.New(upper))
}

// startSegWriter starts a v2.1 segment on w: magic plus the header,
// whose structural counts stay zero — the trailing filter frame states
// them once the stream has run dry. codec names the payload kind and
// the value element; bloom is the filter Finish writes (nil writes
// none). Once the types pass the raw eligibility check the writer is
// returned even if writing the header fails, so the bytes it wrote stay
// countable.
func startSegWriter[K cmp.Ordered, E any](w io.Writer, cfg Config, codec segCodec[E], hasVals bool, bloom *filter.Bloom) (*segWriter[K, E], error) {
	c, err := segContract[K](codec, hasVals)
	if err != nil {
		return nil, fmt.Errorf("store: raw segment writer: %v", err)
	}
	hdr := newSegHeader(segV21, codec.kind(), hasVals, cfg)
	hdr.Endian, hdr.KeyKind, hdr.KeyWidth = c.Endian, int(c.KeyKind), c.KeyWidth
	hdr.ValKind, hdr.ValWidth = int(c.ValKind), c.ValWidth
	n, err := io.WriteString(w, segMagic)
	sw := &segWriter[K, E]{
		bw:      blockio.NewWriter(w),
		base:    int64(n),
		cfg:     cfg,
		align:   int64(segAlignFor(cfg.Layout)),
		hasVals: hasVals,
		valTag:  codec.rawTag(),
		width:   max(c.KeyWidth, c.ValWidth),
		bloom:   bloom,
	}
	if err == nil {
		err = writeGobFrame(sw.bw, tagSegHeader, hdr)
	}
	return sw, err
}

// AppendShard lays one shard's sorted records out (layShard) — in
// place, mutating the caller's slices — and appends their raw frames.
func (sw *segWriter[K, E]) AppendShard(keys []K, vals []E) error {
	if err := sw.checkShard(keys, vals); err != nil {
		return err
	}
	layShard(sw.cfg, sw.bloom, keys, vals)
	return sw.appendPermuted(keys, vals)
}

// layShard is the layout step every DB run shard takes, whichever sink
// receives it: each key is fed to the run's bloom filter, so filter
// construction rides the pass the run maker already makes, and the
// shard's sorted records are permuted in place into cfg's layout.
func layShard[K cmp.Ordered, E any](cfg Config, bloom *filter.Bloom, keys []K, vals []E) {
	for _, k := range keys {
		bloom.Add(keyHash(k))
	}
	perm.PermuteWith(keys, vals, cfg.Layout, perm.CycleLeader,
		perm.WithWorkers(cfg.Workers), perm.WithB(cfg.B))
}

// appendPermuted appends one shard whose arrays already sit in the
// segment's layout: a pad frame and the raw array for the keys, then for
// the values when the segment has them. A shard's raw array is one
// frame, and must be: a mapped shard is served as one contiguous region.
func (sw *segWriter[K, E]) appendPermuted(keys []K, vals []E) error {
	if err := sw.checkShard(keys, vals); err != nil {
		return err
	}
	if err := sw.writeArray(tagSegKeys, mmapio.Bytes(keys)); err != nil {
		return err
	}
	if sw.hasVals {
		if err := sw.writeArray(sw.valTag, mmapio.Bytes(vals)); err != nil {
			return err
		}
	}
	sw.lens = append(sw.lens, len(keys))
	sw.records += len(keys)
	return nil
}

func (sw *segWriter[K, E]) checkShard(keys []K, vals []E) error {
	if sw.finished {
		return fmt.Errorf("store: segment shard appended after Finish")
	}
	if len(keys) == 0 || (sw.hasVals && len(keys) != len(vals)) {
		return fmt.Errorf("store: segment shard holds %d keys and %d values; want equal and nonzero", len(keys), len(vals))
	}
	// blockio caps a frame at MaxBlock (1 GiB): refuse here with an
	// actionable error rather than fail inside the frame writer.
	if len(keys) > blockio.MaxBlock/sw.width {
		return fmt.Errorf("store: segment shard holds %d records × %d bytes, over the %d-byte per-shard frame cap of the raw segment codec; build with more shards (WithShards) to persist a dataset this large",
			len(keys), sw.width, blockio.MaxBlock)
	}
	return nil
}

// segZeros backs pad-frame payloads (at most segPageAlign-1 bytes of
// them).
var segZeros [segPageAlign]byte

// writeArray writes one raw array: a pad frame sized so the payload that
// follows starts at an align-aligned file offset, then the array bytes.
func (sw *segWriter[K, E]) writeArray(tag byte, payload []byte) error {
	pad := int((sw.align - (sw.base+sw.bw.Offset()+2*blockio.HeaderSize)%sw.align) % sw.align)
	if err := sw.bw.WriteBlock(tagSegPad, segZeros[:pad]); err != nil {
		return err
	}
	return sw.bw.WriteBlock(tag, payload)
}

// Records returns the record count appended so far.
func (sw *segWriter[K, E]) Records() int { return sw.records }

// Finish seals the segment: the filter frame carrying the shard
// lengths, record count, and bloom filter, then the trailer that marks
// the stream complete. At least one shard must have been appended — an
// empty segment is not a valid stream, and the compactor never writes
// one (an all-tombstone merge abandons the file instead).
func (sw *segWriter[K, E]) Finish() error {
	if sw.finished {
		return fmt.Errorf("store: Finish called twice")
	}
	if sw.records == 0 {
		return fmt.Errorf("store: Finish on a segment with no shards")
	}
	sw.finished = true
	sf := segFilter{ShardLens: sw.lens, Records: sw.records}
	if sw.bloom != nil {
		sf.Bloom = sw.bloom.Marshal()
	}
	if err := writeGobFrame(sw.bw, tagSegFilter, sf); err != nil {
		return err
	}
	return writeGobFrame(sw.bw, tagSegTrailer, segTrailer{Records: sw.records})
}
