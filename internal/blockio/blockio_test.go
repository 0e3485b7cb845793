package blockio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	frames := []struct {
		tag     byte
		payload []byte
	}{
		{'a', []byte("hello")},
		{'b', nil},
		{'c', bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, f := range frames {
		if err := bw.WriteBlock(f.tag, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if bw.Offset() != int64(buf.Len()) {
		t.Fatalf("Offset() = %d, buffer holds %d bytes", bw.Offset(), buf.Len())
	}
	br := NewReader(bytes.NewReader(buf.Bytes()))
	for i, f := range frames {
		tag, payload, err := br.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != f.tag || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: tag %c payload %d bytes; want %c, %d bytes",
				i, tag, len(payload), f.tag, len(f.payload))
		}
	}
	if _, _, err := br.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestAppendFrame: the frame encoder WriteBlock wraps appends exactly
// the bytes WriteBlock writes, keeps what dst already held, and — into a
// buffer with room — allocates nothing.
func TestAppendFrame(t *testing.T) {
	var want bytes.Buffer
	bw := NewWriter(&want)
	prefix := []byte("prefix")
	got := bytes.Clone(prefix)
	for i, p := range [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{0xAB}, 300)} {
		tag := byte('a' + i)
		if err := bw.WriteBlock(tag, p); err != nil {
			t.Fatal(err)
		}
		got = AppendFrame(got, tag, p)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Fatalf("AppendFrame wrote % x after the prefix, WriteBlock % x", got[len(prefix):], want.Bytes())
	}
	buf := make([]byte, 0, HeaderSize+16)
	payload := make([]byte, 16)
	if n := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], 'p', payload) }); n != 0 {
		t.Fatalf("AppendFrame into a buffer with room: %v allocs, want 0", n)
	}
}

// TestWriteBlockTwoWrites: WriteBlock's stream is AppendFrame's bytes,
// made of one write of the header and one of the caller's payload slice
// itself, with no per-frame allocation however large the payload.
func TestWriteBlockTwoWrites(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A, 0xA5, 0x01}, 1<<18)
	var rec recordingWriter
	bw := NewWriter(&rec)
	if err := bw.WriteBlock('k', payload); err != nil {
		t.Fatal(err)
	}
	if want := AppendFrame(nil, 'k', payload); !bytes.Equal(rec.buf.Bytes(), want) {
		t.Fatalf("WriteBlock wrote %d bytes that differ from AppendFrame's %d", rec.buf.Len(), len(want))
	}
	if len(rec.writes) != 2 || rec.writes[0] != HeaderSize || &rec.last[0] != &payload[0] {
		t.Fatalf("WriteBlock made writes of %v bytes; want [%d %d], the second the payload slice itself",
			rec.writes, HeaderSize, len(payload))
	}
	bw = NewWriter(io.Discard)
	write := func() {
		if err := bw.WriteBlock('k', payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, write); n != 0 {
		t.Fatalf("WriteBlock of a %d-byte payload: %v allocs, want 0", len(payload), n)
	}
}

// TestWriteBlockFailedWrite: a writer that fails on the header or on the
// payload write, after accepting part of it or none, makes WriteBlock
// return its error, and Offset counts exactly the bytes it accepted.
func TestWriteBlockFailedWrite(t *testing.T) {
	boom := errors.New("disk full")
	payload := bytes.Repeat([]byte{7}, 100)
	for _, tc := range []struct {
		name   string
		budget int // bytes the writer accepts before failing
	}{
		{"header, nothing accepted", 0},
		{"header, part accepted", 4},
		{"payload, nothing accepted", HeaderSize},
		{"payload, part accepted", HeaderSize + 60},
	} {
		w := &failingWriter{budget: tc.budget, err: boom}
		bw := NewWriter(w)
		if err := bw.WriteBlock('f', payload); !errors.Is(err, boom) {
			t.Fatalf("%s: WriteBlock = %v, want the writer's error", tc.name, err)
		}
		if bw.Offset() != int64(tc.budget) || w.n != tc.budget {
			t.Fatalf("%s: Offset() = %d, writer accepted %d bytes; want %d", tc.name, bw.Offset(), w.n, tc.budget)
		}
	}
}

// recordingWriter keeps the bytes written, each write's length, and the
// last slice passed to Write.
type recordingWriter struct {
	buf    bytes.Buffer
	writes []int
	last   []byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	w.last = p
	return w.buf.Write(p)
}

// failingWriter accepts budget bytes in all, then fails every write.
type failingWriter struct {
	budget, n int
	err       error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	k := min(len(p), w.budget-w.n)
	w.n += k
	if k < len(p) {
		return k, w.err
	}
	return k, nil
}

func TestReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.WriteBlock('x', []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flipping any single byte of the frame must fail: tag and payload
	// are covered by the checksum, the length redirects it, and the
	// stored checksum no longer matches.
	for i := range clean {
		bad := bytes.Clone(clean)
		bad[i] ^= 0x40
		_, _, err := NewReader(bytes.NewReader(bad)).Next()
		if err == nil {
			t.Fatalf("flipped byte %d: frame accepted", i)
		}
	}
}

func TestReaderDetectsTornTail(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.WriteBlock('x', []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBlock('y', []byte("second, soon torn")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(full) - 1; cut > HeaderSize+len("first"); cut-- {
		br := NewReader(bytes.NewReader(full[:cut]))
		if _, _, err := br.Next(); err != nil {
			t.Fatalf("cut %d: first frame: %v", cut, err)
		}
		_, _, err := br.Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: torn frame gave %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	for _, content := range []string{"first version", "second version"} {
		err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write([]byte(content))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("ReadFile = %q, %v; want %q", got, err, content)
		}
	}
	// A failed write must leave the previous version and no temp litter.
	wantErr := errors.New("boom")
	err := WriteFileAtomic(path, func(io.Writer) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("failing write returned %v, want boom", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second version" {
		t.Fatalf("after failed write: %q, %v; want previous version intact", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "artifact" {
		t.Fatalf("directory holds %d entries after failed write; want just the artifact", len(entries))
	}
}

func TestFrameWalk(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	frames := []struct {
		tag     byte
		payload []byte
	}{
		{'x', []byte("zero-copy")},
		{'y', nil},
		{'z', bytes.Repeat([]byte{0x5A}, 1000)},
	}
	for _, f := range frames {
		if err := bw.WriteBlock(f.tag, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	b := buf.Bytes()
	off := 0
	for i, f := range frames {
		tag, payload, next, err := Frame(b, off, true)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != f.tag || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: tag %c, %d bytes; want %c, %d bytes",
				i, tag, len(payload), f.tag, len(f.payload))
		}
		// The payload must alias b, not copy it.
		if len(payload) > 0 && &payload[0] != &b[off+HeaderSize] {
			t.Fatalf("frame %d: payload copied", i)
		}
		off = next
	}
	if _, _, _, err := Frame(b, off, true); err != io.EOF {
		t.Fatalf("walk past the last frame: %v, want io.EOF", err)
	}
}

func TestFrameWalkErrors(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.WriteBlock('q', []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	// Truncation anywhere inside the frame is ErrUnexpectedEOF.
	for cut := 1; cut < len(b); cut++ {
		if _, _, _, err := Frame(b[:cut], 0, true); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut to %d bytes: %v, want ErrUnexpectedEOF", cut, err)
		}
	}

	// A flipped payload byte is ErrCorrupt with verification on, and
	// sails through with it off (the caller opted out).
	bad := bytes.Clone(b)
	bad[len(bad)-1] ^= 0xFF
	if _, _, _, err := Frame(bad, 0, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload, verify on: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := Frame(bad, 0, false); err != nil {
		t.Fatalf("flipped payload, verify off: %v, want nil", err)
	}

	// A corrupted length field fails the bounds check or MaxBlock.
	bad = bytes.Clone(b)
	bad[3] = 0xFF
	if _, _, _, err := Frame(bad, 0, true); err == nil {
		t.Fatalf("absurd length accepted")
	}

	// Offsets outside the buffer are rejected, not sliced.
	if _, _, _, err := Frame(b, len(b)+1, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("offset past the end: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := Frame(b, -1, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative offset: %v, want ErrCorrupt", err)
	}
}

func TestFrameEdgeCases(t *testing.T) {
	// A zero-length payload frame that is the whole buffer: the frame
	// parses (empty payload, not nil semantics the caller must guess
	// at), next lands exactly at len(b), and the walk then ends with a
	// clean io.EOF — the "frame ends exactly at EOF" boundary.
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBlock('e', nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	tag, payload, next, err := Frame(b, 0, true)
	if err != nil {
		t.Fatalf("zero-length frame: %v", err)
	}
	if tag != 'e' || len(payload) != 0 {
		t.Fatalf("zero-length frame: tag %c, %d payload bytes", tag, len(payload))
	}
	if next != len(b) {
		t.Fatalf("zero-length frame: next=%d, want %d", next, len(b))
	}
	if _, _, _, err := Frame(b, next, true); err != io.EOF {
		t.Fatalf("after final frame: %v, want io.EOF", err)
	}

	// The same walk must hold with verification off: skipping the CRC
	// must not skip the structural checks.
	if _, _, _, err := Frame(b, 0, false); err != nil {
		t.Fatalf("zero-length frame, verify off: %v", err)
	}
	if _, _, _, err := Frame(b, next, false); err != io.EOF {
		t.Fatalf("after final frame, verify off: %v, want io.EOF", err)
	}
	if _, _, _, err := Frame(b[:HeaderSize-1], 0, false); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header, verify off: %v, want ErrUnexpectedEOF", err)
	}
	if _, _, _, err := Frame(b, len(b)+1, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("offset past the end, verify off: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := Frame(b, -1, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative offset, verify off: %v, want ErrCorrupt", err)
	}

	// A payload subslice is capacity-clamped to its own frame: a caller
	// appending to it must reallocate rather than scribble over the
	// header of the frame that follows in the mapped file.
	buf.Reset()
	bw := NewWriter(&buf)
	if err := bw.WriteBlock('a', []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBlock('b', []byte("second")); err != nil {
		t.Fatal(err)
	}
	b = buf.Bytes()
	_, payload, next, err = Frame(b, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload capacity %d leaks past its frame (len %d)", cap(payload), len(payload))
	}
	grown := append(payload, '!')
	if tag, second, _, err := Frame(b, next, true); err != nil || tag != 'b' || !bytes.Equal(second, []byte("second")) {
		t.Fatalf("append to first payload damaged the next frame: tag %c, %q, %v", tag, second, err)
	}
	_ = grown
}

// TestReaderLimit checks the connection-facing cap: a header claiming a
// payload beyond the limit is refused as corrupt before any allocation
// proportional to the claim, while frames inside the limit still read.
func TestReaderLimit(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.WriteBlock('a', []byte("small")); err != nil {
		t.Fatal(err)
	}
	br := NewReaderLimit(bytes.NewReader(buf.Bytes()), 16)
	if tag, payload, err := br.Next(); err != nil || tag != 'a' || string(payload) != "small" {
		t.Fatalf("in-limit frame: %c %q %v", tag, payload, err)
	}

	// A 9-byte header claiming a near-MaxBlock payload: the default
	// reader would allocate it; the limited reader must refuse.
	hdr := make([]byte, HeaderSize)
	hdr[0] = 'a'
	binary.LittleEndian.PutUint32(hdr[1:5], 1<<29)
	br = NewReaderLimit(bytes.NewReader(hdr), 1<<20)
	if _, _, err := br.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-limit frame: got %v, want ErrCorrupt", err)
	}
}
