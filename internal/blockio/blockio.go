// Package blockio implements the framed-block file format shared by the
// store's durable artifacts — segment files, the write-ahead log, and
// the manifest. Every artifact is a sequence of self-describing frames:
//
//	frame := tag(1) | length(4, LE) | crc32c(4, LE) | payload
//
// The checksum is CRC-32C (Castagnoli) over the tag byte followed by the
// payload, so a flipped bit anywhere in a frame's content — including
// its type — fails verification, and a corrupted length field makes the
// checksum run over the wrong byte range and fail with overwhelming
// probability. A frame cut short by a crash (a "torn tail") surfaces as
// io.ErrUnexpectedEOF, which callers distinguish from both a clean end
// of stream (io.EOF) and content corruption (ErrCorrupt): a torn final
// frame is the expected shape of an interrupted append, while a checksum
// mismatch earlier in a file is real damage.
//
// WriteFileAtomic is the publication primitive for rewrite-in-place
// artifacts (the manifest, finished segments): write to a temp file in
// the destination directory, fsync it, rename over the destination, and
// fsync the directory, so concurrent readers and post-crash reopens see
// either the old complete file or the new complete file, never a prefix.
package blockio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrCorrupt reports a frame whose checksum does not match its content
// (or whose header is structurally impossible). It is distinct from
// io.ErrUnexpectedEOF, which reports a frame cut short by truncation.
var ErrCorrupt = errors.New("blockio: corrupt block")

// HeaderSize is the fixed frame prelude: tag, payload length, checksum.
// It is exported so callers laying frames out at controlled offsets (the
// segment codec's 64-byte payload alignment) can do the arithmetic.
const HeaderSize = 1 + 4 + 4

// MaxBlock caps a single frame's payload. It exists so a corrupted
// length field cannot demand an absurd read; real payloads (a shard's
// encoded key array, a WAL record) sit far below it.
const MaxBlock = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tagCRC[t] is the CRC-32C of the one-byte string t: the running
// checksum after the tag, from which checksum continues over the
// payload. A table rather than a per-call one-byte slice, which the
// checksum's assembly kernel would force onto the heap.
var tagCRC = func() (t [256]uint32) {
	for i := range t {
		t[i] = crc32.Update(0, castagnoli, []byte{byte(i)})
	}
	return t
}()

func checksum(tag byte, payload []byte) uint32 {
	return crc32.Update(tagCRC[tag], castagnoli, payload)
}

// Writer appends frames to an underlying stream and tracks the byte
// offset, so callers can report exact file sizes without stat calls.
type Writer struct {
	w   io.Writer
	off int64
	hdr [HeaderSize]byte // WriteBlock's header, here so it does not escape per call
}

// NewWriter returns a frame writer over w. The writer does no buffering
// of its own: each WriteBlock issues one Write of the frame header and
// one of the payload, straight from the caller's slice, so an *os.File
// underneath has every acked frame in the OS page cache (a process crash
// loses nothing; fsync policy is the caller's), and a crash between the
// two writes leaves a torn tail, which readers already tell apart from
// corruption.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// AppendFrame appends one frame holding payload under tag to dst and
// returns the extended slice. It is the one frame encoder: WriteBlock
// wraps it, and a caller that writes many small frames (the write-ahead
// log, one record per frame) reuses one buffer across them, so an
// append allocates nothing once the buffer has grown. The caller keeps
// payload within MaxBlock.
func AppendFrame(dst []byte, tag byte, payload []byte) []byte {
	hdr := header(tag, payload)
	return append(append(dst, hdr[:]...), payload...)
}

// header encodes the prelude of the frame holding payload under tag.
func header(tag byte, payload []byte) (hdr [HeaderSize]byte) {
	hdr[0] = tag
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], checksum(tag, payload))
	return hdr
}

// WriteBlock appends one frame holding payload under the given tag: the
// header, then the payload itself, never copied. The bytes are
// AppendFrame's. Offset counts what the underlying writer accepted, so
// after an error it still names the end of the bytes on the stream.
func (bw *Writer) WriteBlock(tag byte, payload []byte) error {
	if len(payload) > MaxBlock {
		return fmt.Errorf("blockio: payload of %d bytes exceeds MaxBlock", len(payload))
	}
	bw.hdr = header(tag, payload)
	n, err := bw.w.Write(bw.hdr[:])
	bw.off += int64(n)
	if err != nil || len(payload) == 0 {
		return err
	}
	n, err = bw.w.Write(payload)
	bw.off += int64(n)
	return err
}

// Offset returns the number of bytes written so far.
func (bw *Writer) Offset() int64 { return bw.off }

// Reader iterates the frames of a stream, verifying each checksum.
type Reader struct {
	r   io.Reader
	max int
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, max: MaxBlock} }

// NewReaderLimit returns a frame reader that treats any frame whose
// payload exceeds limit as corrupt. Next allocates the payload buffer
// before reading it, so a reader fed by an untrusted peer — a network
// connection rather than a file this process wrote — must cap what a
// nine-byte header can make it allocate; limit is clamped to MaxBlock.
func NewReaderLimit(r io.Reader, limit int) *Reader {
	return &Reader{r: r, max: min(limit, MaxBlock)}
}

// Next returns the next frame's tag and payload. At a clean end of
// stream it returns io.EOF; a frame cut short mid-header or mid-payload
// returns io.ErrUnexpectedEOF; a checksum mismatch or impossible length
// returns an error wrapping ErrCorrupt.
func (br *Reader) Next() (tag byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean boundary: no frame started
		}
		return 0, nil, err
	}
	if _, err := io.ReadFull(br.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header started but cut short
		}
		return 0, nil, err
	}
	tag = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	want := binary.LittleEndian.Uint32(hdr[5:9])
	if int64(n) > int64(br.max) {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds limit %d", ErrCorrupt, n, br.max)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if got := checksum(tag, payload); got != want {
		return 0, nil, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrCorrupt, got, want)
	}
	return tag, payload, nil
}

// Frame parses the frame starting at byte off of b and returns its tag,
// its payload as a subslice of b — no copy, which is the point: b is
// typically a mapped file, and the payload subslice IS the servable
// data — and the offset of the frame that follows. At the exact end of
// b it returns io.EOF; a frame cut short by the end of b returns
// io.ErrUnexpectedEOF; an impossible length returns ErrCorrupt.
//
// verify selects whether the payload checksum is recomputed. Passing
// false skips an O(len(payload)) touch of every mapped page — the
// zero-copy open path verifies the small structural frames and leaves
// bulk array frames to the integrity of the store's write protocol —
// while true gives the same guarantee as Reader.Next.
func Frame(b []byte, off int, verify bool) (tag byte, payload []byte, next int, err error) {
	if off == len(b) {
		return 0, nil, 0, io.EOF
	}
	if off < 0 || off > len(b) {
		return 0, nil, 0, fmt.Errorf("%w: frame offset %d outside %d bytes", ErrCorrupt, off, len(b))
	}
	if len(b)-off < HeaderSize {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	tag = b[off]
	n := binary.LittleEndian.Uint32(b[off+1 : off+5])
	want := binary.LittleEndian.Uint32(b[off+5 : off+9])
	if n > MaxBlock {
		return 0, nil, 0, fmt.Errorf("%w: frame length %d exceeds MaxBlock", ErrCorrupt, n)
	}
	// Compare in int, not uint32: the remaining-byte count of a mapped
	// multi-GiB file overflows uint32, and a wrapped comparison would
	// reject intact frames past the 4 GiB mark.
	if len(b)-off-HeaderSize < int(n) {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	start := off + HeaderSize
	payload = b[start : start+int(n) : start+int(n)]
	if verify {
		if got := checksum(tag, payload); got != want {
			return 0, nil, 0, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrCorrupt, got, want)
		}
	}
	return tag, payload, start + int(n), nil
}

// WriteFileAtomic publishes a file at path by writing it to a temp file
// in the same directory, fsyncing, and renaming it into place, then
// fsyncing the directory so the rename itself is durable. On any error
// the temp file is removed and the destination is untouched.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	tmp = nil // renamed away: nothing to clean up
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making completed renames and removals in
// it durable. Filesystems that cannot sync a directory handle report an
// error from Sync; those are surfaced to the caller.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
