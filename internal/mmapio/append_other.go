//go:build !linux

package mmapio

import "os"

// Appender appends to the end of an open file. Here, without the Linux
// append mapping, each Append is one write(2) at the file's offset, and
// nothing is reserved past the appended bytes.
type Appender struct {
	f    *os.File
	size int64
}

// NewAppender starts appending to f, which holds size bytes and whose
// offset is at its end. The Appender borrows f: closing it, and syncing
// it, stay the caller's.
func NewAppender(f *os.File, size int64) (*Appender, error) {
	return &Appender{f: f, size: size}, nil
}

// Size returns the file's logical length: its bytes up to the end of
// the last append.
func (a *Appender) Size() int64 { return a.size }

// Append writes p to the end of the file with one write(2).
func (a *Appender) Append(p []byte) error {
	n, err := a.f.Write(p)
	a.size += int64(n)
	return err
}

// Unmap has no mapping to release.
func (a *Appender) Unmap() error { return nil }

// Finish has no reserved fill to cut: the file already ends at Size.
func (a *Appender) Finish() error { return nil }
