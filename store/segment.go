package store

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/filter"
	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/rawfmt"
	"implicitlayout/layout"
)

// The segment codec serializes a built Store so it can be reopened
// without re-sorting or re-permuting: the per-shard key and value arrays
// are written exactly as they sit in memory — already permuted into
// their layout — so reading a segment back is index reconstruction over
// the stored arrays, never a rebuild. The permuted array IS the on-disk
// format, which is the external-memory payoff of an implicit
// (pointer-free) layout: there is nothing to deserialize.
//
// A segment is a magic prefix followed by blockio frames. The writer
// picks the format from the types alone: every store whose key type is
// a fixed-width primitive (ints, uints, floats), and whose value type is
// one too when it has values, is written as v2.1 by segWriter; any other
// store (string keys, struct values) is written as v1 (gob). v2 is no
// longer written but stays readable, as do v1 and v2.1 — forever.
//
// Version 1 (gob; any gob-encodable K and V):
//
//	"ILSEG\x01"
//	frame 'h': gob(segHeader)      version, structure, shard lengths
//	per shard, in fence order:
//	  frame 'k': gob([]K)          the shard's permuted key array
//	  frame 'v': gob([]V)          plain payloads (omitted for key sets)
//	  — or, for DB run segments —
//	  frame 'w': gob([]V)          raw values, tombstone slots zeroed
//	  frame 't': bitmap            tombstone bit per shard position
//	frame 'e': gob(segTrailer)     record count; doubles as an end marker
//
// Version 2.1 (raw, streamable; every fixed-width store):
//
//	"ILSEG\x01"
//	frame 'h': gob(segHeader)      as v1 but Records is 0 and ShardLens
//	                               nil, plus the platform contract:
//	                               endianness tag, key/value reflect
//	                               kinds, key/value element widths
//	per shard, in fence order:
//	  frame 'p': zero padding      sized so the NEXT payload starts at a
//	                               64-byte-aligned file offset
//	  frame 'k': raw key array     the permuted keys, native byte order
//	  frame 'p': zero padding      (value frames only when HasVals)
//	  frame 'v': raw value array   plain payloads — or, for DB runs,
//	  frame 'w': raw mval array    value + tombstone flag per element
//	frame 'f': gob(segFilter)      the authoritative shard lengths and
//	                               record count, plus the serialized
//	                               bloom filter (empty for plain stores)
//	frame 'e': gob(segTrailer)     record count; doubles as an end marker
//
// Version 2 (raw; read-only) is v2.1 with the shard lengths and record
// count in the header and no 'f' frame.
//
// A raw shard array on disk is bit-identical to the array in memory, and
// every array payload starts 64-byte aligned (cache-line aligned, and —
// since the magic sits at file offset 0 and mappings are page-aligned —
// correctly aligned for any primitive element). Hierarchical-layout
// segments widen that to 4096: their page-sized layout blocks then
// coincide with OS pages of the mapping, so one cold outer descent step
// costs one page fault (see segAlignFor). Pad frames are self-sizing,
// so readers need not know which alignment the writer chose. That is
// what makes the raw formats mappable: OpenStore with WithMmap serves
// the arrays in place from the page cache without decoding them (see
// mmap.go).
//
// v2.1 can be written front to back by a streaming compaction that
// learns the shard count, lengths, and filter only as the merged stream
// runs dry — the writer never seeks — and a writer holding a built store
// follows the same path one shard at a time. One parser (parseRawSeg)
// reads both raw versions from either frame source, a checksumming
// stream or a mapping: it takes each shard's length from the size of its
// 'k' frame and cross-checks the lengths against the v2 header or the
// v2.1 'f' frame, and serves each array as a view of the frame payload
// in place. The fence keys and the min/max key interval are not
// serialized at all: a reader recovers them from the permuted arrays by
// rank arithmetic (rank 0 of each shard, last rank of the last shard),
// O(1) per shard.
//
// Raw frames are native-endian; the header records their platform
// contract (internal/rawfmt), and a reader whose contract differs
// refuses the segment with an error naming the field instead of serving
// garbage. A segment whose version this build does not know is likewise
// refused — never guessed at, and never garbage-collected as a stray.
//
// Every frame carries a CRC-32C (see internal/blockio), so truncation
// surfaces as a torn or missing trailer and bit rot as a checksum
// mismatch. The trailer is what distinguishes "complete" from "cut
// short": a reader that has not seen frame 'e' refuses the file, and a
// file open refuses bytes after it. (The zero-copy mapped open is the
// one deliberate exception to full checksumming: it verifies the
// structural frames but not the bulk arrays it never reads — see the
// contract note on OpenStore.)

const (
	segMagic = "ILSEG\x01"

	segV1  = 1 // gob frames: any gob-encodable K and V
	segV2  = 2 // raw fixed-width frames, lengths in the header: read-only
	segV21 = 3 // raw fixed-width frames, lengths in the 'f' frame: written

	tagSegHeader  = 'h'
	tagSegKeys    = 'k'
	tagSegVals    = 'v'
	tagSegRawVals = 'w'
	tagSegTombs   = 't'
	tagSegPad     = 'p'
	tagSegFilter  = 'f'
	tagSegTrailer = 'e'

	// segAlign is the alignment of every raw array payload within the
	// file: one cache line, and a multiple of every primitive's natural
	// alignment.
	segAlign = 64

	// segPageAlign is the raw array alignment for hierarchical-layout
	// segments: one OS page, so that a mapped shard's page-sized layout
	// blocks coincide with page-cache units and a cold outer descent
	// step faults exactly one page. Readers are pad-length-agnostic, so
	// the wider padding needs no format change.
	segPageAlign = 4096
)

// segAlignFor returns the raw array alignment for a layout: page blocks
// for the hierarchical layout, cache lines otherwise.
func segAlignFor(k layout.Kind) int {
	if k == layout.Hier {
		return segPageAlign
	}
	return segAlign
}

// errSegVersionUnknown marks a segment written by a build newer than this
// one. Open treats it specially: such a file is refused, never deleted as
// a stray — it may be real data this build simply cannot read.
var errSegVersionUnknown = errors.New("store: segment version unknown to this build")

// knownSegVersion reports whether this build reads segments of codec
// version v — the one list both the header check and the stray-segment
// GC consult.
func knownSegVersion(v int) bool {
	return v == segV1 || v == segV2 || v == segV21
}

// errSegNotMappable marks a well-formed segment that cannot be served by
// mapping (a v1 gob segment); the caller falls back to heap decoding.
var errSegNotMappable = errors.New("store: segment is not mappable")

// Payload kinds: a plain segment stores user values directly; a run
// segment stores the DB's mval payloads — as a raw value array plus a
// tombstone bitmap in v1, or as the mval array verbatim in raw — so the
// value type itself never needs to understand deletion markers.
const (
	segPayloadPlain = iota
	segPayloadRun
)

// segHeader is frame 'h': everything needed to rebuild the Store's
// structure around the raw arrays. The platform-contract fields are set
// for raw (v2, v2.1) segments only; v1 readers ignore them and pre-v2
// builds decode them away harmlessly (gob skips unknown fields).
type segHeader struct {
	Version    int
	Payload    int   // segPayloadPlain or segPayloadRun
	Records    int   // total records across shards
	HasVals    bool  // false for key-set stores (no value frames at all)
	Layout     int   // layout.Kind the shards are permuted into
	B          int   // B-tree node capacity the shards were built with
	Algorithm  int   // written as 1 (cycle-leader, the one family builds use); ignored on read
	Duplicates int   // DuplicatePolicy the store was built with
	ShardLens  []int // per-shard record counts, in fence order

	// The rawfmt.Contract fields, flat (see segHeader.contract).
	// KeyKind/ValKind are reflect.Kind values; ValWidth is the on-disk
	// element width — sizeof(V) for plain segments, sizeof(mval) for run
	// segments, whose elements carry the tombstone flag inline.
	Endian   string
	KeyKind  int
	KeyWidth int
	ValKind  int
	ValWidth int
}

// segTrailer is frame 'e': the completeness marker.
type segTrailer struct {
	Records int
}

// segFilter is frame 'f' of a v2.1 segment: the structural facts a
// streaming writer only knows at the end — the authoritative per-shard
// record counts (cross-checked against the sizes of the 'k' frames that
// preceded it) — plus the run's serialized bloom filter
// (filter.Marshal bytes; empty when the run has none).
type segFilter struct {
	ShardLens []int
	Records   int
	Bloom     []byte
}

// segCodec abstracts how a shard's value slice crosses the codec: one
// gob frame for plain stores, raw values + tombstone bitmap for DB runs
// (v1), or — when segContract allows — a verbatim array dump (raw
// formats). readShard fills dst (length 0, capacity n — a window into
// the store's preallocated value array) with exactly n decoded payloads.
type segCodec[V any] interface {
	kind() int
	writeShard(bw *blockio.Writer, vals []V) error
	readShard(br *blockio.Reader, n int, dst []V) error
	// rawVals returns the value type whose kind the header records and
	// the on-disk element type whose size it records: the user value
	// both times for plain segments; for run segments the element is the
	// mval wrapper of the value.
	rawVals() (val, elem reflect.Type)
	// rawTag is the raw array frame tag ('v' plain, 'w' run).
	rawTag() byte
}

// plainCodec serializes values as one gob frame per shard (v1) or a raw
// array dump (fixed-width V). V must be gob-encodable for v1.
type plainCodec[V any] struct{}

func (plainCodec[V]) kind() int    { return segPayloadPlain }
func (plainCodec[V]) rawTag() byte { return tagSegVals }

func (plainCodec[V]) rawVals() (reflect.Type, reflect.Type) {
	return reflect.TypeFor[V](), reflect.TypeFor[V]()
}

func (plainCodec[V]) writeShard(bw *blockio.Writer, vals []V) error {
	return writeGobFrame(bw, tagSegVals, vals)
}

func (plainCodec[V]) readShard(br *blockio.Reader, n int, dst []V) error {
	return readGobSlice(br, tagSegVals, n, dst)
}

// runCodec serializes the DB's mval payloads. In v1 the raw user values
// travel in one gob frame (tombstone slots hold the zero value) and the
// tombstone bits in a second, so the wire format needs no knowledge of
// mval's layout. In the raw formats the mval array itself is the
// payload: for a fixed-width V, mval[V] — value plus tombstone flag — is
// itself a fixed-width struct, so the dump stays mappable and the
// tombstone bit rides at its in-memory offset. (The recorded ValWidth
// pins the struct size; mval's field order is part of the raw formats
// and must not change without a version bump.)
type runCodec[V any] struct{}

func (runCodec[V]) kind() int    { return segPayloadRun }
func (runCodec[V]) rawTag() byte { return tagSegRawVals }

func (runCodec[V]) rawVals() (reflect.Type, reflect.Type) {
	return reflect.TypeFor[V](), reflect.TypeFor[mval[V]]()
}

func (runCodec[V]) writeShard(bw *blockio.Writer, vals []mval[V]) error {
	raw := make([]V, len(vals))
	dead := make([]byte, (len(vals)+7)/8)
	for i, mv := range vals {
		if mv.dead {
			dead[i/8] |= 1 << (i % 8)
		} else {
			raw[i] = mv.val
		}
	}
	if err := writeGobFrame(bw, tagSegRawVals, raw); err != nil {
		return err
	}
	return bw.WriteBlock(tagSegTombs, dead)
}

func (runCodec[V]) readShard(br *blockio.Reader, n int, dst []mval[V]) error {
	// The wire holds raw values and a bitmap, the store holds mval — one
	// scratch slice for the raw decode is inherent to the translation.
	raw := make([]V, 0, n)
	if err := readGobSlice(br, tagSegRawVals, n, raw); err != nil {
		return err
	}
	raw = raw[:n]
	tag, dead, err := br.Next()
	if err != nil {
		return fmt.Errorf("store: segment tombstone bitmap: %w", err)
	}
	if tag != tagSegTombs || len(dead) != (n+7)/8 {
		return fmt.Errorf("store: segment tombstone bitmap malformed (tag %q, %d bytes for %d records)",
			tag, len(dead), n)
	}
	vals := dst[:n]
	for i := range vals {
		if dead[i/8]&(1<<(i%8)) != 0 {
			vals[i] = mval[V]{dead: true}
		} else {
			vals[i] = mval[V]{val: raw[i]}
		}
	}
	return nil
}

// writeGobFrame and readGobFrame are the gob-payload-in-a-frame codec
// shared by the segment and manifest formats.
func writeGobFrame(bw *blockio.Writer, tag byte, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("store: encoding frame %q: %w", tag, err)
	}
	return bw.WriteBlock(tag, buf.Bytes())
}

func readGobFrame(br *blockio.Reader, want byte, v any) error {
	return nextGobFrame(br.Next, want, v)
}

// frameSource yields a segment's frames in order: blockio.Reader.Next
// over a stream, or a walk of blockio.Frame over mapped bytes (see
// readSegMapped).
type frameSource func() (tag byte, payload []byte, err error)

// nextGobFrame reads the next frame from next, which must carry the
// tag want, and gob-decodes its payload into v.
func nextGobFrame(next frameSource, want byte, v any) error {
	tag, payload, err := next()
	if err != nil {
		return fmt.Errorf("store: reading frame %q: %w", want, err)
	}
	if tag != want {
		return fmt.Errorf("store: frame %q where %q expected", tag, want)
	}
	return decodeGob(payload, want, v)
}

func decodeGob(payload []byte, tag byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("store: decoding frame %q: %w", tag, err)
	}
	return nil
}

// readGobSlice decodes a slice frame of exactly n elements, steering
// gob's allocation into dst (length 0, capacity n): gob reuses a
// destination slice whose capacity suffices, so a segment shard decodes
// straight into the store's preallocated backing array with no scratch
// copy — the "reopen is a read, not a rebuild" property, applied to
// allocation too. If gob nevertheless reallocated (a malformed frame
// longer than the header promised would, before failing the length
// check), the decoded data is copied back so the contract holds.
func readGobSlice[T any](br *blockio.Reader, tag byte, n int, dst []T) error {
	s := dst
	if err := readGobFrame(br, tag, &s); err != nil {
		return err
	}
	if len(s) != n {
		return fmt.Errorf("store: segment frame %q holds %d elements, header says %d", tag, len(s), n)
	}
	if n > 0 && &s[0] != &dst[:1][0] {
		copy(dst[:n], s)
	}
	return nil
}

// WriteTo serializes the store to w in the segment format, returning the
// byte count written. The shards' permuted arrays go out verbatim, so a
// later ReadStore serves queries with zero rebuild work. When K — and V,
// if the store has values — are fixed-width primitives, the raw v2.1
// format is written: the shard arrays become 64-byte-aligned memory
// dumps a later OpenStore can map and serve zero-copy. Otherwise the gob
// v1 format is written, and K and V must be gob-encodable. Both read
// back identically. WriteTo implements io.WriterTo and never mutates the
// store.
//
// The stream is laid out assuming it starts at offset 0 of its file
// (segment files always do): writing it at a nonzero offset breaks the
// raw format's alignment guarantee for a future mapped open, though heap
// decoding still works.
func (s *Store[K, V]) WriteTo(w io.Writer) (int64, error) {
	return writeSegStream(w, s, plainCodec[V]{})
}

// ReadStore reconstructs a Store from a stream produced by WriteTo. The
// structural parameters (layout, shard count, B, duplicate policy) come
// from the stream itself; of the options only WithWorkers is honored —
// it bounds the parallelism of future Export/Rebuild calls on the
// reopened store. The stream is checksummed frame by frame: a truncated
// or bit-flipped segment is rejected, never served. ReadStore stops at
// the segment's trailer and leaves the rest of r unread. (To serve a
// segment file zero-copy instead of decoding it, see OpenStore.)
func ReadStore[K cmp.Ordered, V any](r io.Reader, opts ...Option) (*Store[K, V], error) {
	return readSegStream[K](r, plainCodec[V]{}, opts)
}

// writeRunStream serializes a DB run's Store (mval payloads) — the
// flush and in-memory merge sink: same writers, run payload kind.
func writeRunStream[K cmp.Ordered, V any](w io.Writer, st *Store[K, mval[V]]) (int64, error) {
	return writeSegStream(w, st, runCodec[V]{})
}

// readRunStream reopens a DB run segment from a stream with the given
// Export parallelism — the heap-decode path; openSegFile adds the
// mapped alternative for file-backed runs.
func readRunStream[K cmp.Ordered, V any](r io.Reader, workers int) (*Store[K, mval[V]], error) {
	return readSegStream[K](r, runCodec[V]{}, []Option{WithWorkers(workers)})
}

// segContract returns the platform contract of a raw segment of K keys
// and, when hasVals, of codec's values. An error means some array the
// store holds is not a fixed-width memory dump, so only gob can carry it.
func segContract[K cmp.Ordered, V any](codec segCodec[V], hasVals bool) (rawfmt.Contract, error) {
	var val, elem reflect.Type
	if hasVals {
		val, elem = codec.rawVals()
	}
	return rawfmt.New(reflect.TypeFor[K](), val, elem)
}

// contract returns the platform contract a raw header records. The value
// fields of a key set's header are not part of it.
func (h *segHeader) contract() rawfmt.Contract {
	c := rawfmt.Contract{Endian: h.Endian, KeyKind: reflect.Kind(h.KeyKind), KeyWidth: h.KeyWidth}
	if h.HasVals {
		c.ValKind, c.ValWidth = reflect.Kind(h.ValKind), h.ValWidth
	}
	return c
}

// newSegHeader states the structural fields every writer records.
func newSegHeader(version, payload int, hasVals bool, cfg Config) segHeader {
	return segHeader{
		Version:    version,
		Payload:    payload,
		HasVals:    hasVals,
		Layout:     int(cfg.Layout),
		B:          cfg.B,
		Algorithm:  1,
		Duplicates: int(cfg.Duplicates),
	}
}

// writeSegStream writes a built store: as v2.1 through segWriter, one
// already-permuted shard at a time, when every array is a fixed-width
// memory dump, and as v1 (gob) otherwise.
func writeSegStream[K cmp.Ordered, V any](w io.Writer, s *Store[K, V], codec segCodec[V]) (int64, error) {
	if _, err := segContract[K](codec, s.hasVals); err != nil {
		return writeSegV1(w, s, codec)
	}
	// Eligible, so startSegWriter returns a writer even when its first
	// writes fail, and the byte count stays exact.
	sw, err := startSegWriter[K](w, s.cfg, codec, s.hasVals, s.bloom)
	for i := 0; err == nil && i < len(s.shards); i++ {
		var vals []V
		if s.hasVals {
			vals = s.svals[i]
		}
		err = sw.appendPermuted(s.shards[i].idx.Data(), vals)
	}
	if err == nil {
		err = sw.Finish()
	}
	return sw.base + sw.bw.Offset(), err
}

// writeSegV1 writes the v1 (gob) format, the fallback for stores whose
// keys or values are not fixed-width. K and V must be gob-encodable.
func writeSegV1[K cmp.Ordered, V any](w io.Writer, s *Store[K, V], codec segCodec[V]) (int64, error) {
	n, err := io.WriteString(w, segMagic)
	if err != nil {
		return int64(n), err
	}
	base := int64(n)
	bw := blockio.NewWriter(w)
	hdr := newSegHeader(segV1, codec.kind(), s.hasVals, s.cfg)
	hdr.Records = s.n
	for _, sh := range s.shards {
		hdr.ShardLens = append(hdr.ShardLens, sh.idx.Len())
	}
	if err := writeGobFrame(bw, tagSegHeader, hdr); err != nil {
		return base + bw.Offset(), err
	}
	for i, sh := range s.shards {
		if err := writeGobFrame(bw, tagSegKeys, sh.idx.Data()); err != nil {
			return base + bw.Offset(), err
		}
		if s.hasVals {
			if err := codec.writeShard(bw, s.svals[i]); err != nil {
				return base + bw.Offset(), err
			}
		}
	}
	err = writeGobFrame(bw, tagSegTrailer, segTrailer{Records: s.n})
	return base + bw.Offset(), err
}

// config maps the header's build parameters to the Config the shards
// were built with.
func (h *segHeader) config() Config {
	return Config{Layout: layout.Kind(h.Layout), B: h.B, Duplicates: DuplicatePolicy(h.Duplicates)}
}

// validateSegHeader runs the structural checks shared by every reader:
// known version, build parameters checkConfig accepts, consistent record
// and shard counts, and — for raw segments — the platform contract,
// which must match this build's on this machine, or the raw arrays would
// be served as garbage.
func validateSegHeader[K cmp.Ordered, V any](hdr *segHeader, codec segCodec[V]) error {
	if !knownSegVersion(hdr.Version) {
		return fmt.Errorf("%w: version %d, this build reads v%d (gob), v%d (raw), and v%d (raw streamable) — written by a newer build?",
			errSegVersionUnknown, hdr.Version, segV1, segV2, segV21)
	}
	if hdr.Payload != codec.kind() {
		return fmt.Errorf("store: segment payload kind %d where %d expected (a DB run segment and a plain Store segment are not interchangeable)",
			hdr.Payload, codec.kind())
	}
	if err := checkConfig(hdr.config()); err != nil {
		return fmt.Errorf("store: segment header: %w", err)
	}
	if hdr.Version == segV21 {
		// The streamable format learns its lengths from the shard frames
		// and the 'f' frame; the header must not claim any.
		if hdr.Records != 0 || hdr.ShardLens != nil {
			return fmt.Errorf("store: v2.1 segment header claims records=%d shards=%d; lengths belong in the filter frame",
				hdr.Records, len(hdr.ShardLens))
		}
	} else if err := validateShardLens(hdr.ShardLens, hdr.Records); err != nil {
		return err
	}
	if hdr.Version != segV1 {
		want, err := segContract[K](codec, hdr.HasVals)
		if err != nil {
			return fmt.Errorf("store: segment holds raw arrays, but this store's %v", err)
		}
		if err := hdr.contract().Check(want); err != nil {
			return fmt.Errorf("store: segment %v — refusing to serve its raw arrays", err)
		}
	}
	return nil
}

// validateShardLens checks the per-shard record counts a v1 or v2
// header states: at least one shard, every shard non-empty, and the
// lengths summing to the stated record count.
func validateShardLens(lens []int, records int) error {
	if records < 1 || len(lens) < 1 || len(lens) > records {
		return fmt.Errorf("store: segment structure malformed (records=%d shards=%d)",
			records, len(lens))
	}
	total := 0
	for _, l := range lens {
		if l < 1 || l > records-total {
			return fmt.Errorf("store: segment shard lengths %v inconsistent with %d records",
				lens, records)
		}
		total += l
	}
	if total != records {
		return fmt.Errorf("store: segment shard lengths sum to %d, header says %d records",
			total, records)
	}
	return nil
}

// newSegStore assembles a reopened Store around the shard arrays a
// reader recovered: config from the header, worker bound from the
// options (below 1 selects GOMAXPROCS, as in par.New), and the fence
// order checked, since the arrays came from a file.
func newSegStore[K cmp.Ordered, V any](hdr *segHeader, opts []Option, keys [][]K, vals [][]V) (*Store[K, V], error) {
	var optc Config
	for _, o := range opts {
		o(&optc)
	}
	cfg := hdr.config()
	cfg.Workers = optc.Workers
	if !hdr.HasVals {
		vals = nil
	}
	s := newStore(cfg, keys, vals)
	for i := 1; i < len(s.fences); i++ {
		// Equal fences are possible under KeepAll, where an equal-key
		// run may straddle a shard boundary; descending ones never are.
		if s.fences[i] < s.fences[i-1] {
			return nil, fmt.Errorf("store: segment fence keys not ascending at shard %d", i)
		}
	}
	return s, nil
}

// readSegHead reads a segment's magic and header frame from r. It
// returns the header and the frame reader positioned after it.
func readSegHead(r io.Reader) (*segHeader, *blockio.Reader, error) {
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, nil, fmt.Errorf("store: reading segment magic: %w", err)
	}
	if string(magic) != segMagic {
		return nil, nil, fmt.Errorf("store: not a segment file (magic %q)", magic)
	}
	br := blockio.NewReader(r)
	var hdr segHeader
	if err := readGobFrame(br, tagSegHeader, &hdr); err != nil {
		return nil, nil, err
	}
	return &hdr, br, nil
}

func readSegStream[K cmp.Ordered, V any](r io.Reader, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	hdr, br, err := readSegHead(r)
	if err != nil {
		return nil, err
	}
	if err := validateSegHeader[K](hdr, codec); err != nil {
		return nil, err
	}
	if hdr.Version != segV1 {
		// blockio.Reader hands every payload a fresh allocation, so the
		// parser may keep each array frame as the shard array itself.
		return parseRawSeg[K](br.Next, hdr, codec, opts)
	}

	// v1: one contiguous heap array per record column, shards windowed
	// back to back exactly as Build leaves them, and gob decoding each
	// shard straight into its window.
	keys := make([]K, hdr.Records)
	var vals []V
	if hdr.HasVals {
		vals = make([]V, hdr.Records)
	}
	shardKeys := make([][]K, len(hdr.ShardLens))
	shardVals := make([][]V, len(hdr.ShardLens))
	off := 0
	for i, l := range hdr.ShardLens {
		if err := readGobSlice(br, tagSegKeys, l, keys[off:off:off+l]); err != nil {
			return nil, err
		}
		shardKeys[i] = keys[off : off+l : off+l]
		if hdr.HasVals {
			if err := codec.readShard(br, l, vals[off:off:off+l]); err != nil {
				return nil, err
			}
			shardVals[i] = vals[off : off+l : off+l]
		}
		off += l
	}
	var tr segTrailer
	if err := readGobFrame(br, tagSegTrailer, &tr); err != nil {
		return nil, fmt.Errorf("store: segment trailer missing (file truncated?): %w", err)
	}
	if tr.Records != hdr.Records {
		return nil, fmt.Errorf("store: segment trailer says %d records, header %d", tr.Records, hdr.Records)
	}
	return newSegStore(hdr, opts, shardKeys, shardVals)
}

// parseRawSeg is the one parser of the raw formats, v2 and v2.1, run on
// the frames that follow a validated header. next is the frame source: a
// checksumming stream whose every payload is a fresh allocation, or a
// walk over mapped bytes that checksums the structural frames but not
// the bulk arrays. Each shard's length comes from the size of its 'k'
// frame, and the lengths observed are then cross-checked against the
// ones the writer stated — in the v2 header, or in the v2.1 'f' frame.
// Every array is served as a view of its frame payload, in place, so a
// reopen copies nothing; mmapio.View refuses a payload misaligned for
// its element type.
func parseRawSeg[K cmp.Ordered, V any](next frameSource, hdr *segHeader, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	endTag := byte(tagSegTrailer)
	if hdr.Version == segV21 {
		endTag = tagSegFilter
	}
	var (
		keys    [][]K
		vals    [][]V
		lens    []int
		records int
		end     []byte // payload of the frame after the last shard
	)
	for {
		tag, payload, err := next()
		if err != nil {
			return nil, fmt.Errorf("store: reading segment shard frames (file truncated?): %w", err)
		}
		if tag != tagSegPad {
			if tag != endTag {
				return nil, fmt.Errorf("store: frame %q where pad or %q expected", tag, endTag)
			}
			end = payload
			break
		}
		k, err := rawArray[K](next, tagSegKeys, 0)
		if err != nil {
			return nil, err
		}
		keys, lens, records = append(keys, k), append(lens, len(k)), records+len(k)
		if hdr.HasVals {
			if err := nextPad(next, codec.rawTag()); err != nil {
				return nil, err
			}
			v, err := rawArray[V](next, codec.rawTag(), len(k))
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
	}
	var sf segFilter
	var tr segTrailer
	if hdr.Version == segV21 {
		if err := decodeGob(end, tagSegFilter, &sf); err != nil {
			return nil, err
		}
		hdr.ShardLens, hdr.Records = sf.ShardLens, sf.Records
		if err := nextGobFrame(next, tagSegTrailer, &tr); err != nil {
			return nil, fmt.Errorf("store: segment trailer missing (file truncated?): %w", err)
		}
	} else if err := decodeGob(end, tagSegTrailer, &tr); err != nil {
		return nil, err
	}
	// A mismatch means a frame went missing or a foreign frame slipped
	// in, both of which somehow kept their checksums — refuse. (Each
	// observed length is nonzero, so agreement also validates v2.1's
	// stated lengths.)
	if records == 0 || hdr.Records != records || tr.Records != records || !slices.Equal(hdr.ShardLens, lens) {
		return nil, fmt.Errorf("store: segment states %d records in shards %v (trailer %d), its frames hold %d in %v",
			hdr.Records, hdr.ShardLens, tr.Records, records, lens)
	}
	s, err := newSegStore(hdr, opts, keys, vals)
	if err != nil {
		return nil, err
	}
	if len(sf.Bloom) > 0 {
		if s.bloom, err = filter.Unmarshal(sf.Bloom); err != nil {
			return nil, fmt.Errorf("store: segment run filter: %w", err)
		}
	}
	return s, nil
}

// nextPad consumes the pad frame that precedes a raw array frame.
func nextPad(next frameSource, before byte) error {
	tag, _, err := next()
	if err != nil {
		return fmt.Errorf("store: reading pad before frame %q: %w", before, err)
	}
	if tag != tagSegPad {
		return fmt.Errorf("store: frame %q where pad expected", tag)
	}
	return nil
}

// rawArray reads one raw array frame, which must carry the tag want and
// hold exactly n elements — or, for n == 0, any nonzero count (a key
// frame, which states its shard's length) — and views it as a []T.
func rawArray[T any](next frameSource, want byte, n int) ([]T, error) {
	tag, payload, err := next()
	if err != nil {
		return nil, fmt.Errorf("store: reading frame %q: %w", want, err)
	}
	if tag != want {
		return nil, fmt.Errorf("store: frame %q where %q expected", tag, want)
	}
	a, err := mmapio.View[T](payload)
	if err != nil {
		return nil, fmt.Errorf("store: segment frame %q: %w", want, err)
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("store: segment frame %q is empty", want)
	}
	if n > 0 && len(a) != n {
		return nil, fmt.Errorf("store: segment frame %q holds %d elements, its shard %d keys", want, len(a), n)
	}
	return a, nil
}

// probeSegmentVersion reads just enough of a segment file to learn its
// codec version. Open uses it before garbage-collecting a stray segment:
// a version this build does not know marks a file written by a newer
// build, which must be refused — surfaced, not silently deleted.
func probeSegmentVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr, _, err := readSegHead(f)
	if err != nil {
		return 0, err
	}
	return hdr.Version, nil
}
