//go:build linux

package mmapio

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// extent is how much more of the file an Appender reserves and maps
// each time it fills: one default memtable's raw log (2^15 records of
// 25 bytes) fits in the first.
const extent = 1 << 20

// fallocate reserves a file's blocks; tests swap it to take the
// written-zeros path of filesystems without preallocation.
var fallocate = syscall.Fallocate

// zeros is the source of the zero writes that reserve blocks where
// fallocate is not supported.
var zeros [64 << 10]byte

// Appender appends to the end of an open file by copying into a shared,
// writable mapping of it, with no system call per append. A store into
// a MAP_SHARED mapping is in the OS page cache the moment it lands, so
// an appended byte outlives a process crash exactly as a write(2) would,
// and an fsync of the file writes it back.
//
// Before any store lands in a block, the block is reserved — with
// fallocate, or by writing zeros where the filesystem cannot
// preallocate — so a full disk is an error from the Append that needs
// the next extent, never a SIGBUS on a store. Until Finish, the file
// therefore runs past the appended bytes into a reserved zero fill, and
// Append keeps at least one byte of that fill after the last append.
//
// On platforms without it the same type appends with one write(2) per
// Append and reserves nothing. Appends are not safe for concurrent use;
// an fsync of the file may run beside them.
type Appender struct {
	f    *os.File
	size int64  // bytes in the file up to the end of the last append
	base int64  // file offset of data[0], page-aligned
	end  int64  // file offset where the mapping ends: base+len(data)
	data []byte // the mapping of [base, end)
}

// NewAppender starts appending to f, which must be open for reading and
// writing and hold size bytes, and reserves and maps its first extent.
// The Appender borrows f: closing it, and syncing it, stay the caller's.
func NewAppender(f *os.File, size int64) (*Appender, error) {
	a := &Appender{f: f, size: size, base: size, end: size}
	if err := a.grow(size); err != nil {
		return nil, err
	}
	return a, nil
}

// Size returns the file's logical length: its bytes up to the end of
// the last append.
func (a *Appender) Size() int64 { return a.size }

// Append copies p to the end of the file. It allocates nothing, and
// makes no system call unless p reaches the end of the mapping.
func (a *Appender) Append(p []byte) error {
	if need := a.size + int64(len(p)); need >= a.end {
		if err := a.grow(need); err != nil {
			return err
		}
	}
	copy(a.data[a.size-a.base:], p)
	a.size += int64(len(p))
	return nil
}

// grow reserves whole extents past the mapping's end until it passes
// need, then maps the file afresh from the page that holds the logical
// end, so an append straddling the old end lands in one mapping. On an
// error the old mapping stays in place.
func (a *Appender) grow(need int64) error {
	end := a.end
	for end <= need {
		end += extent
	}
	if err := reserve(a.f, a.end, end-a.end); err != nil {
		return err
	}
	base := a.size &^ int64(os.Getpagesize()-1)
	data, err := syscall.Mmap(int(a.f.Fd()), base, int(end-base), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mmapio: mapping %s for append: %w", a.f.Name(), err)
	}
	if err := a.Unmap(); err != nil {
		syscall.Munmap(data)
		return err
	}
	a.data, a.base, a.end = data, base, end
	return nil
}

// reserve allocates the file's blocks in [off, off+n), extending the
// file past them.
func reserve(f *os.File, off, n int64) error {
	err := fallocate(int(f.Fd()), 0, off, n)
	for err == syscall.EINTR {
		err = fallocate(int(f.Fd()), 0, off, n)
	}
	if errors.Is(err, syscall.EOPNOTSUPP) {
		err = nil
		for done := int64(0); done < n && err == nil; done += int64(len(zeros)) {
			_, err = f.WriteAt(zeros[:min(n-done, int64(len(zeros)))], off+done)
		}
	}
	if err != nil {
		return fmt.Errorf("mmapio: reserving %d bytes of %s: %w", n, f.Name(), err)
	}
	return nil
}

// Unmap releases the mapping and leaves the file as a killed process
// would: the appended bytes, then the reserved zero fill. A later
// Append maps the file again.
func (a *Appender) Unmap() error {
	data := a.data
	a.data, a.base, a.end = nil, a.size, a.size
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}

// Finish releases the mapping and cuts the file at Size, dropping the
// reserved fill, so the file holds exactly the appended bytes. It
// neither syncs nor closes the file.
func (a *Appender) Finish() error {
	err := a.Unmap()
	if terr := a.f.Truncate(a.size); err == nil {
		err = terr
	}
	return err
}
