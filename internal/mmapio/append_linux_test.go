package mmapio

import (
	"errors"
	"syscall"
	"testing"
)

// withFallocate runs the test with fallocate answering err.
func withFallocate(t *testing.T, err error) {
	saved := fallocate
	fallocate = func(int, uint32, int64, int64) error { return err }
	t.Cleanup(func() { fallocate = saved })
}

// TestAppenderWritesZeros: on a filesystem without fallocate the
// Appender reserves its extents by writing zeros, and appends the same
// bytes.
func TestAppenderWritesZeros(t *testing.T) {
	withFallocate(t, syscall.EOPNOTSUPP)
	f, a, want := appendAll(t, []byte("HEAD"), appendChunks(2<<20+5))
	checkFile(t, f, want, true)
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		t.Fatal(err)
	}
	if st.Blocks*512 < st.Size {
		t.Fatalf("%d bytes of file hold only %d allocated bytes: the fill was not written", st.Size, st.Blocks*512)
	}
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	checkFile(t, f, want, false)
}

// TestAppenderFullDisk: when the next extent cannot be reserved, the
// append that needs it fails with the reservation's error and stores
// nothing; every earlier append stays in the file.
func TestAppenderFullDisk(t *testing.T) {
	f, a, want := appendAll(t, []byte("HEAD"), appendChunks(extent/2))
	withFallocate(t, syscall.ENOSPC)
	big := make([]byte, extent)
	big[0] = 1
	if err := a.Append(big); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append past the reserved extent: %v, want ENOSPC", err)
	}
	if a.Size() != int64(len(want)) {
		t.Fatalf("Size %d after a failed append, want %d", a.Size(), len(want))
	}
	if err := a.Append([]byte("tail")); err != nil {
		t.Fatalf("append inside the reserved extent: %v", err)
	}
	want = append(want, "tail"...)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	checkFile(t, f, want, false)
}
