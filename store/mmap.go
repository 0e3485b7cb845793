package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/mmapio"
)

// This file is the zero-copy half of the segment codec: opening a raw
// (v2 or v2.1) segment file by mapping it read-only and serving the shard
// arrays in place from the page cache. The search kernels are untouched
// by any of it — a mapped shard is still just a []K — which is the
// paper's implicit-layout property doing external-memory work: a query
// touches O(log_B n) cache lines of a flat array, and it makes no
// difference whether those lines are heap or page cache.

// backing records who owns a store's shard arrays. A nil *backing means
// the Go heap owns them (Build, ReadStore) and the garbage collector is
// the whole lifecycle. A non-nil backing means the arrays view a mapped
// segment file, and release unmaps it.
type backing struct {
	release func() error
}

// Mapped reports whether the store serves its shard arrays from a
// mapped segment file rather than the heap.
func (s *Store[K, V]) Mapped() bool { return s.back != nil }

// Release unmaps a mapped store's backing region. It is idempotent and
// a no-op for heap-backed stores.
//
// After Release every query on the store faults: the caller owns the
// proof that no reader still holds it. Callers that cannot prove that —
// the DB's snapshot epochs, where a superseded run may still be serving
// an old reader's Range — must NOT call Release and instead let the
// mapping die with the store: every mapped open registers a GC cleanup,
// so an unreferenced mapped store unmaps itself exactly when the last
// epoch holding it is collected, the same reclamation rule as heap runs.
func (s *Store[K, V]) Release() error {
	if s.back == nil {
		return nil
	}
	return s.back.release()
}

// OpenStore opens a segment file written by Store.WriteTo. With
// WithMmap(true) and a raw v2/v2.1 segment (fixed-width K and V) on a
// platform with mmap, the file is mapped read-only and served zero-copy:
// the open costs O(shards) page touches instead of an O(data) decode,
// the shard arrays stay in the OS page cache rather than the Go heap,
// and datasets larger than RAM are served at page granularity. In every
// other case — v1 gob segments, platforms without mmap, or no WithMmap —
// the file is decoded onto the heap exactly like ReadStore. Either way
// the file must end at the segment's trailer.
//
// The zero-copy trade, stated plainly: a mapped open verifies the magic,
// header, padding, and trailer checksums and every structural invariant,
// but does NOT checksum the bulk shard arrays it never reads — that
// would page in the whole file and forfeit the O(shards) open. Integrity
// of the arrays rests on the segment write protocol (written once,
// fsynced, atomically renamed, never modified). A heap decode of the
// same file (ReadStore, or OpenStore without mmap) verifies every frame.
//
// A mapped store serves any number of concurrent readers. Its mapping is
// released when the store is garbage-collected, or eagerly by Release if
// the caller can prove no reader remains.
func OpenStore[K cmp.Ordered, V any](path string, opts ...Option) (*Store[K, V], error) {
	return openSegFile[K, V](path, plainCodec[V]{}, opts)
}

// openSegFile opens one segment file with the configured backing:
// mapped when requested and possible, heap-decoded otherwise. It is the
// single entry point shared by OpenStore and the DB's segment reopen.
func openSegFile[K cmp.Ordered, V any](path string, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	var optc Config
	for _, o := range opts {
		o(&optc)
	}
	if optc.Mmap && mmapio.Supported {
		if st, err := openSegMapped[K, V](path, codec, opts); !errors.Is(err, errSegNotMappable) {
			return st, err
		}
		// A v1 segment under a mmap request: decode it onto the heap —
		// the pre-v2 files stay servable forever, just not zero-copy.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := readSegStream[K](f, codec, opts)
	if err != nil {
		return nil, err
	}
	// The stream reader stops at the trailer; the file must end there.
	if rest, err := io.Copy(io.Discard, f); err != nil {
		return nil, fmt.Errorf("store: reading past the segment trailer: %w", err)
	} else if rest > 0 {
		return nil, errTrailingBytes(rest)
	}
	return st, nil
}

// openSegMapped maps the file and builds a Store over the mapping. On
// any error the mapping is released before returning; errSegNotMappable
// (a v1 segment) tells the caller to fall back to heap decoding.
func openSegMapped[K cmp.Ordered, V any](path string, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	region, err := mmapio.Map(path)
	if err != nil {
		// No mapping to be had (platform quirk, exotic filesystem):
		// degrade to the decode path rather than failing the open.
		return nil, errSegNotMappable
	}
	st, err := readSegMapped[K, V](region.Bytes(), codec, opts)
	if err != nil {
		return nil, errors.Join(err, region.Close())
	}
	st.back = &backing{release: region.Close}
	// The safety net that makes "snapshot epochs end at garbage
	// collection" hold for mapped runs too: when the last reference to
	// the store dies, the mapping goes with it. Release (or a second
	// cleanup) is harmless — Region.Close is idempotent.
	//lint:allow stickyerr GC-triggered last-resort unmap: there is no caller to hand the error to, and a failed munmap only leaks address space
	runtime.AddCleanup(st, func(r *mmapio.Region) { r.Close() }, region)
	// Point queries dominate serving; tell the OS not to read ahead.
	region.Advise(mmapio.Random)
	return st, nil
}

// readSegMapped builds a Store whose shard arrays are views into b, the
// mapped bytes of a raw segment file: the shared raw parser fed by a
// frame walk over b. Structural frames (header, pads, filter, trailer)
// are checksum-verified; the raw array frames are bounds- and
// length-checked but not checksummed — see the OpenStore contract.
func readSegMapped[K cmp.Ordered, V any](b []byte, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("store: not a segment file (magic %q)", b[:min(len(b), len(segMagic))])
	}
	off := len(segMagic)
	next := func() (byte, []byte, error) {
		// A frame's tag is its first byte, so whether to verify it is
		// known before parsing it.
		verify := off < len(b) && !rawArrayTag(b[off])
		tag, payload, end, err := blockio.Frame(b, off, verify)
		if err != nil {
			return 0, nil, err
		}
		off = end
		return tag, payload, nil
	}
	var hdr segHeader
	if err := nextGobFrame(next, tagSegHeader, &hdr); err != nil {
		return nil, err
	}
	if err := validateSegHeader[K](&hdr, codec); err != nil {
		return nil, err
	}
	if hdr.Version == segV1 {
		return nil, fmt.Errorf("%w: v%d segments hold gob frames, which map to nothing", errSegNotMappable, hdr.Version)
	}
	s, err := parseRawSeg[K](next, &hdr, codec, opts)
	if err != nil {
		return nil, err
	}
	if off != len(b) {
		return nil, errTrailingBytes(int64(len(b) - off))
	}
	return s, nil
}

// rawArrayTag reports whether a frame tag names a raw shard array — the
// bulk frames a mapped open leaves unverified.
func rawArrayTag(tag byte) bool {
	return tag == tagSegKeys || tag == tagSegVals || tag == tagSegRawVals
}

// errTrailingBytes refuses a segment file with n bytes after its
// trailer: a file holds exactly one segment, whichever way it is opened.
func errTrailingBytes(n int64) error {
	return fmt.Errorf("store: %d bytes of trailing junk after the segment trailer", n)
}
