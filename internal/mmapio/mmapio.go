// Package mmapio maps files into memory for zero-copy serving and for
// appends without a system call. The store's raw segment formats (v2
// and v2.1) hold fixed-width shard arrays as raw, 64-byte-aligned
// blocks precisely so this package can hand them back as typed slices
// without decoding: a mapped segment is served straight from the OS
// page cache, the servable dataset is bounded by the address space
// rather than the heap, and a cold open costs page-table setup instead
// of an O(data) read.
//
// The package has three parts:
//
//   - Region is the read half: Map opens a file read-only and maps it
//     whole; Advise passes access-pattern hints to the OS; Close
//     unmaps. Both Map and the mapping syscalls are unix-only — on other
//     platforms Supported is false and Map fails, which callers treat as
//     "fall back to heap decode" (mirroring the store's lock.go /
//     lock_other.go pattern).
//
//   - Appender is the write half: it appends to the end of a file by
//     copying into a shared, writable mapping of it — the write-ahead
//     log's path, with no system call per record. It reserves the file's
//     blocks before a store lands in them, so the file runs into a zero
//     fill until Finish cuts it at its logical end. It is Linux-only; on
//     other platforms the same type appends with one write(2).
//
//   - View and Bytes are the cast half and compile everywhere: a checked
//     unsafe.Slice reinterpretation between []byte and []T for
//     fixed-width T. They are what make "a mapped region is still just a
//     []K" true, so search kernels never know whether their array lives
//     on the heap or in the page cache.
//
// A Region's memory is read-only: writing through a View of a mapped
// region faults. The fault-safety contract is the segment protocol's
// immutability — segments are never modified in place, and deleting a
// mapped file is safe on unix (the pages live until the last unmap).
// An Appender's mapping is writable, and only its own Append stores
// into it.
package mmapio

import (
	"fmt"
	"sync"
	"unsafe"
)

// Region is one read-only mapping of a whole file. It is safe for any
// number of concurrent readers; Close (idempotent, safe to race with
// itself) unmaps, after which every slice derived from Bytes or View is
// invalid — the caller owns the ordering between last read and Close.
type Region struct {
	data  []byte
	close sync.Once
	err   error
}

// Bytes returns the mapped file contents. The slice is valid until
// Close.
func (r *Region) Bytes() []byte { return r.data }

// Len returns the mapped length in bytes.
func (r *Region) Len() int { return len(r.data) }

// Close unmaps the region. Idempotent: the first call's error is
// remembered and returned by every later call.
func (r *Region) Close() error {
	r.close.Do(func() { r.err = r.unmap() })
	return r.err
}

// Advice names an access-pattern hint for Advise. Hints are best-effort:
// platforms without madvise accept and ignore them.
type Advice int

const (
	// Normal clears any previous hint.
	Normal Advice = iota
	// Random hints point queries: read-ahead is wasted on a tree
	// descent's scattered cache-line touches.
	Random
	// Sequential hints full scans: aggressive read-ahead, early reclaim.
	Sequential
	// WillNeed asks the OS to start paging the region in now.
	WillNeed
)

// View reinterprets b as a []T without copying. T must be a fixed-width
// type; the byte length must be an exact multiple of T's size and the
// data must be aligned for T — both are checked, because b typically
// comes from a file whose header the caller has only partially
// validated. An empty b yields an empty slice.
func View[T any](b []byte) ([]T, error) {
	var zero T
	w := int(unsafe.Sizeof(zero))
	if w == 0 {
		return nil, fmt.Errorf("mmapio: cannot view zero-width type %T", zero)
	}
	if len(b) == 0 {
		return []T{}, nil
	}
	if len(b)%w != 0 {
		return nil, fmt.Errorf("mmapio: %d bytes is not a whole number of %d-byte elements", len(b), w)
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if a := unsafe.Alignof(zero); uintptr(p)%a != 0 {
		return nil, fmt.Errorf("mmapio: data misaligned for %d-byte alignment", a)
	}
	return unsafe.Slice((*T)(p), len(b)/w), nil
}

// Bytes returns the raw memory of s as a byte slice, without copying —
// View's inverse, used by the segment writer to put a shard array on
// disk exactly as it sits in memory. The result aliases s and is valid
// while s is.
func Bytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}
