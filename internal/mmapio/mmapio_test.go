package mmapio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestViewRoundTrip(t *testing.T) {
	src := []uint64{0, 1, 0xDEADBEEF, 1<<64 - 1, 42}
	raw := Bytes(src)
	if len(raw) != 8*len(src) {
		t.Fatalf("Bytes length %d, want %d", len(raw), 8*len(src))
	}
	got, err := View[uint64](raw)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("View[%d] = %d, want %d", i, got[i], src[i])
		}
	}
	// The view aliases, never copies.
	if &got[0] != &src[0] {
		t.Fatalf("View copied the data")
	}
}

func TestViewChecks(t *testing.T) {
	if _, err := View[uint64](make([]byte, 12)); err == nil {
		t.Fatalf("View accepted 12 bytes as []uint64")
	}
	if _, err := View[struct{}](make([]byte, 8)); err == nil {
		t.Fatalf("View accepted a zero-width element type")
	}
	v, err := View[uint32](nil)
	if err != nil || len(v) != 0 {
		t.Fatalf("View(nil) = %v, %v; want empty, nil", v, err)
	}
	// A deliberately odd offset into an 8-aligned buffer must be refused
	// for 8-byte elements.
	buf := make([]byte, 32)
	if _, err := View[uint64](buf[1:17]); err == nil {
		t.Fatalf("View accepted misaligned data")
	}
}

func TestBytesEndianness(t *testing.T) {
	// Bytes writes native memory order; on the little-endian platforms we
	// build for, that is little-endian. (The segment header records the
	// order and refuses mismatched hosts, so this is an invariant check,
	// not an assumption.)
	raw := Bytes([]uint32{0x01020304})
	want := make([]byte, 4)
	if hostLittle() {
		binary.LittleEndian.PutUint32(want, 0x01020304)
	} else {
		binary.BigEndian.PutUint32(want, 0x01020304)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("Bytes = %x, want %x", raw, want)
	}
}

func hostLittle() bool {
	raw := Bytes([]uint16{1})
	return raw[0] == 1
}

func TestMapLifecycle(t *testing.T) {
	if !Supported {
		t.Skip("no mmap on this platform")
	}
	path := filepath.Join(t.TempDir(), "data")
	content := bytes.Repeat([]byte{0xA5, 0x5A}, 4096)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Map(path)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !bytes.Equal(r.Bytes(), content) {
		t.Fatalf("mapped bytes differ from file content")
	}
	if err := r.Advise(Random); err != nil {
		t.Fatalf("Advise: %v", err)
	}
	// Deleting a mapped file must leave the mapping readable (the store
	// deletes obsolete segments while old readers still hold them).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), content) {
		t.Fatalf("mapping died with the directory entry")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapErrors(t *testing.T) {
	if !Supported {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	if _, err := Map(filepath.Join(dir, "missing")); err == nil {
		t.Fatalf("Map accepted a missing file")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(empty); err == nil {
		t.Fatalf("Map accepted an empty file")
	}
}

// appendAll opens a fresh file holding head, appends each of chunks
// through an Appender and returns both, with the bytes appended so far.
func appendAll(t *testing.T, head []byte, chunks [][]byte) (*os.File, *Appender, []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "log"), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.Write(head); err != nil {
		t.Fatal(err)
	}
	a, err := NewAppender(f, int64(len(head)))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(head)
	for _, c := range chunks {
		if err := a.Append(c); err != nil {
			t.Fatal(err)
		}
		want = append(want, c...)
	}
	if a.Size() != int64(len(want)) {
		t.Fatalf("Size %d after appending %d bytes", a.Size(), len(want))
	}
	return f, a, want
}

// appendChunks returns chunks of 1 to 1000 bytes, each filled with its
// own non-zero byte, totalling at least total bytes.
func appendChunks(total int) [][]byte {
	var chunks [][]byte
	for n, i := 0, 0; n < total; i++ {
		c := bytes.Repeat([]byte{byte(i%255 + 1)}, 1+i*7919%1000)
		chunks = append(chunks, c)
		n += len(c)
	}
	return chunks
}

// checkFile asserts the file holds want, followed by fill zero bytes
// when fill is set (at least one of them), or nothing more when not.
func checkFile(t *testing.T, f *os.File, want []byte, fill bool) {
	t.Helper()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("file does not start with the %d appended bytes", len(want))
	}
	tail := got[len(want):]
	switch {
	case !fill && len(tail) != 0:
		t.Fatalf("file runs %d bytes past the appended ones", len(tail))
	case fill && len(tail) == 0:
		t.Fatalf("file ends at the appended bytes, with no reserved fill")
	case bytes.ContainsFunc(tail, func(r rune) bool { return r != 0 }):
		t.Fatalf("the %d bytes past the appended ones are not all zero", len(tail))
	}
}

// TestAppender appends past three extents in chunks that straddle
// every extent boundary: the file holds exactly the appended bytes,
// then (with the mapping) a zero fill, which Unmap keeps — the state a
// killed process leaves — and Finish cuts.
func TestAppender(t *testing.T) {
	f, a, want := appendAll(t, []byte("HEAD"), appendChunks(3<<20+5))
	mapped := runtime.GOOS == "linux"
	checkFile(t, f, want, mapped)
	if err := a.Unmap(); err != nil {
		t.Fatal(err)
	}
	checkFile(t, f, want, mapped)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	checkFile(t, f, want, false)
}
