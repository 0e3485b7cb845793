package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/rawfmt"
)

// The write-ahead log makes Put and Delete crash-safe: every write is
// appended to the active memtable's log file before it is applied (and
// before the call returns), so a process that dies with records still in
// memory replays them from the log at the next Open. One WAL file
// corresponds to one memtable lifetime: freezing the memtable rotates
// the log, and once the frozen table has been flushed into a segment and
// the manifest committed, its log is deleted — the segment now owns
// those records.
//
// A log has one of two formats, chosen by the DB's types. When both the
// key and the value type dump raw (rawfmt.Kind: the integer and float
// kinds), the log is raw (v2): the magic "ILWAL\x02", one header frame
// stating the platform contract (rawfmt.Contract), then one blockio
// frame per record holding the key and value exactly as they sit in
// memory:
//
//	frame 'h': version(1) = 2 | endian(1) | key kind(1) | key width(1) | val kind(1) | val width(1)
//	frame 'p': key | val    a Put (raw, native layout)
//	frame 'd': key          a Delete (tombstone)
//
// Kinds are reflect.Kind values, widths are bytes, and the endian byte
// is 'l' or 'b'. Every other type pair (string keys, struct values) logs
// through gob (v1): the magic "ILWAL\x01", then
//
//	frame 'P': klen(4, LE) | gob(key) | gob(val)    a Put
//	frame 'D': klen(4, LE) | gob(key)               a Delete (tombstone)
//
// Replay reads both, so a v1 log of fixed-width types written by an
// earlier build still recovers; it is never written for them again.
//
// Each frame carries its own CRC-32C, so replay walks records until the
// stream ends, classifying how it ended: cleanly (walClean), at a frame
// cut short by a crashed append (walTorn — the expected shape of an
// interruption, costing at most the single write that was in flight),
// or at a checksum or decode failure (walCorrupt — real damage). Open
// deletes replayed logs that ended clean or torn, but preserves a
// corrupt log under a ".corrupt" suffix: the intact prefix is recovered
// and served, and the damaged file is kept for inspection instead of
// being silently destroyed. An intact v2 header that names other types,
// another byte order or an unknown version is not damage: Open refuses
// the directory with an error naming the mismatch and leaves the log in
// place, so reopening with the types that wrote it recovers everything.

const (
	walMagicGob = "ILWAL\x01"
	walMagicRaw = "ILWAL\x02"
)

const walRawVersion = 2 // the header frame's version byte

const (
	walTagPut    = 'P' // v1 (gob)
	walTagDelete = 'D' // v1 (gob)
	walTagHeader = 'h' // v2 (raw)
	walTagRawPut = 'p' // v2 (raw)
	walTagRawDel = 'd' // v2 (raw)
)

// walEnd classifies how a log replay ended.
type walEnd int

const (
	walClean   walEnd = iota // the stream ended exactly at a frame boundary
	walTorn                  // final frame cut short: a crash-interrupted append
	walCorrupt               // checksum or decode failure: real damage
)

// walWriter appends records to one log file. Appends are not internally
// locked: the DB serializes them under the same mutex that orders
// memtable writes, which is what makes log order equal apply order —
// and what lets every append reuse the writer's buffers. syncAck and
// seal have their own lock because the SyncWrites fsync deliberately
// happens after the DB mutex is released (see DB.write).
type walWriter[K cmp.Ordered, V any] struct {
	f    *os.File
	path string

	// Append scratch, reused by every record (guarded by the DB mutex):
	// rawRecord encodes the key and value into rec, and append builds the
	// frame in frame.
	frame []byte
	rec   []byte

	mu       sync.Mutex // guards fsync vs seal/close, never held during appends
	sealed   bool       // seal ran: the file is closed
	fsyncErr error      // first fsync failure on this log, latched forever:
	// post-4.13 Linux reports a writeback error on only ONE fsync call
	// per fd, so a later caller's fsync can return nil after an earlier
	// one failed — every durability decision must consult the latch,
	// never a fresh Sync alone.
}

// walPath names the log file for the given sequence number.
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// parseWALSeq extracts the sequence number from a log file name. The
// match is exact, so derived names ("wal-….log.corrupt") and temp files
// never count as replayable logs.
func parseWALSeq(name string) (seq uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err != nil {
		return 0, false
	}
	return seq, name == fmt.Sprintf("wal-%016x.log", seq)
}

// rawDB reports whether a DB[K, V] is raw end to end: it logs raw (v2)
// and its merges stream raw v2.1 segments. Both need K and V to dump
// raw.
func rawDB[K cmp.Ordered, V any]() bool {
	_, err := rawfmt.For[K, V]()
	return err == nil
}

// walHeader returns the v2 header frame's payload stating contract c.
// The endian byte is the first letter of c.Endian: 'l' or 'b'.
func walHeader(c rawfmt.Contract) []byte {
	return []byte{walRawVersion, c.Endian[0], byte(c.KeyKind), byte(c.KeyWidth), byte(c.ValKind), byte(c.ValWidth)}
}

// walPreamble returns the bytes a fresh log of a DB[K, V] starts with:
// the raw magic and header frame, or the gob magic.
func walPreamble[K cmp.Ordered, V any]() []byte {
	c, err := rawfmt.For[K, V]()
	if err != nil {
		return []byte(walMagicGob)
	}
	return blockio.AppendFrame([]byte(walMagicRaw), walTagHeader, walHeader(c))
}

// checkWALHeader refuses a v2 header this DB[K, V] cannot replay: an
// unknown version, the other byte order, or records of other kinds or
// widths. Each would misdecode every record, so the error names the
// mismatch instead.
func checkWALHeader[K cmp.Ordered, V any](h []byte) error {
	if len(h) != 6 || h[0] != walRawVersion {
		return fmt.Errorf("store: WAL header % x is not the 6-byte version-%d header this build reads (written by a newer build?)",
			h, walRawVersion)
	}
	host := rawfmt.HostEndian()
	if h[1] != host[0] {
		return fmt.Errorf("store: WAL records have byte order %q, this host is %s-endian — refusing to replay byte-swapped records",
			h[1], host)
	}
	logged := rawfmt.Contract{Endian: host,
		KeyKind: reflect.Kind(h[2]), KeyWidth: int(h[3]), ValKind: reflect.Kind(h[4]), ValWidth: int(h[5])}
	if want, err := rawfmt.For[K, V](); err != nil || logged.Check(want) != nil {
		return fmt.Errorf("store: WAL records hold %v keys (%d bytes) and %v values (%d bytes); this DB's keys are %s and its values are %s — reopen it with the types that wrote the log",
			logged.KeyKind, logged.KeyWidth, logged.ValKind, logged.ValWidth,
			rawfmt.Describe(reflect.TypeFor[K]()), rawfmt.Describe(reflect.TypeFor[V]()))
	}
	return nil
}

// createWAL creates a fresh log file for a new memtable lifetime and
// fsyncs the directory, so the file's existence survives a power
// failure — without that, a crash could drop the directory entry and
// with it every record the log had durably absorbed. The magic and a
// raw log's header frame go out in one write.
func createWAL[K cmp.Ordered, V any](dir string, seq uint64) (*walWriter[K, V], error) {
	path := walPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	if _, err := f.Write(walPreamble[K, V]()); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: initializing WAL: %w", err)
	}
	if err := blockio.SyncDir(dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: syncing db directory after WAL create: %w", err)
	}
	return &walWriter[K, V]{f: f, path: path}, nil
}

// rawRecord encodes one record of a raw log into the writer's reused
// payload buffer: the key's bytes, then — for a Put — the value's. The
// payload is valid until the next call. Caller holds the DB mutex.
func (w *walWriter[K, V]) rawRecord(key K, mv mval[V]) (tag byte, payload []byte) {
	w.rec = rawfmt.Append(w.rec[:0], key)
	if mv.dead {
		return walTagRawDel, w.rec
	}
	w.rec = rawfmt.Append(w.rec, mv.val)
	return walTagRawPut, w.rec
}

// append logs one record, framing it in the writer's reused buffer. The
// frame reaches the OS (one unbuffered write) before append returns;
// making it reach the disk is syncAck's job. Caller holds the DB mutex.
func (w *walWriter[K, V]) append(tag byte, payload []byte) error {
	w.frame = blockio.AppendFrame(w.frame[:0], tag, payload)
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("store: appending to WAL: %w", err)
	}
	return nil
}

// syncAck fsyncs the log before a SyncWrites Put/Delete is
// acknowledged. It runs after the DB mutex is released, so concurrent
// readers never stall behind a disk sync; because fsync persists the
// whole file, one writer's sync also covers every append that beat it —
// a natural group commit. If the log was sealed in the window between
// the append and this call (a concurrent freeze), the seal's fsync
// already covered the record and there is nothing to do.
func (w *walWriter[K, V]) syncAck() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fsyncErr != nil {
		return w.fsyncErr // an earlier fsync failed; never ack over it
	}
	if w.sealed {
		return nil // covered by the seal's (successful) fsync
	}
	//lint:allow syncorder w.mu exists precisely to order this fsync against seal; db.mu is NOT held here — that is the ack-side group commit
	if err := w.f.Sync(); err != nil {
		w.fsyncErr = fmt.Errorf("store: syncing WAL: %w", err)
		return w.fsyncErr
	}
	return nil
}

// seal fsyncs and closes the log at memtable freeze: the frozen table's
// records are now durable regardless of the sync policy, and the file
// waits for its flush-then-delete.
func (w *walWriter[K, V]) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sealed = true
	if w.fsyncErr != nil {
		// A prior fsync already failed; this fd's Sync may now lie (the
		// kernel reports a writeback error once), so the log cannot be
		// trusted regardless of what a fresh call returns.
		w.f.Close()
		return w.fsyncErr
	}
	//lint:allow syncorder the seal's fsync must hold w.mu so racing syncAck calls cannot ack against a closed fd; w.mu is never reader-contended
	if err := w.f.Sync(); err != nil {
		// Latch the failure before anything else: a SyncWrites writer
		// racing this seal must see it from syncAck, not a false ack.
		w.fsyncErr = fmt.Errorf("store: syncing WAL at freeze: %w", err)
		w.f.Close()
		return w.fsyncErr
	}
	// The data is durable from here; a close failure loses nothing.
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing WAL: %w", err)
	}
	return nil
}

// discard closes the handle and deletes the file — used for the empty
// log of an active memtable at a clean Close. Only ever called on a log
// with no records (no syncAck can be in flight: there is nothing to
// ack).
func (w *walWriter[K, V]) discard() error {
	w.mu.Lock()
	w.sealed = true
	w.f.Close()
	w.mu.Unlock()
	return os.Remove(w.path)
}

// encodeGobRecord builds the payload of one v1 record. Key and value
// travel as independent gob streams so replay can decode them without a
// shared type dictionary; the key's byte length is prefixed to split the
// two.
func encodeGobRecord[K cmp.Ordered, V any](key K, mv mval[V]) (tag byte, payload []byte, err error) {
	var kbuf bytes.Buffer
	if err := gob.NewEncoder(&kbuf).Encode(key); err != nil {
		return 0, nil, fmt.Errorf("store: encoding WAL key: %w", err)
	}
	if mv.dead {
		payload = make([]byte, 4+kbuf.Len())
		binary.LittleEndian.PutUint32(payload, uint32(kbuf.Len()))
		copy(payload[4:], kbuf.Bytes())
		return walTagDelete, payload, nil
	}
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(mv.val); err != nil {
		return 0, nil, fmt.Errorf("store: encoding WAL value: %w", err)
	}
	payload = make([]byte, 4+kbuf.Len()+vbuf.Len())
	binary.LittleEndian.PutUint32(payload, uint32(kbuf.Len()))
	copy(payload[4:], kbuf.Bytes())
	copy(payload[4+kbuf.Len():], vbuf.Bytes())
	return walTagPut, payload, nil
}

// decodeGobRecord inverts encodeGobRecord.
func decodeGobRecord[K cmp.Ordered, V any](tag byte, payload []byte) (key K, mv mval[V], err error) {
	if len(payload) < 4 {
		return key, mv, errors.New("store: WAL record shorter than its key-length prefix")
	}
	klen := int(binary.LittleEndian.Uint32(payload))
	if klen < 0 || 4+klen > len(payload) {
		return key, mv, fmt.Errorf("store: WAL record key length %d exceeds payload", klen)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload[4 : 4+klen])).Decode(&key); err != nil {
		return key, mv, fmt.Errorf("store: decoding WAL key: %w", err)
	}
	switch tag {
	case walTagDelete:
		mv.dead = true
	case walTagPut:
		if err := gob.NewDecoder(bytes.NewReader(payload[4+klen:])).Decode(&mv.val); err != nil {
			return key, mv, fmt.Errorf("store: decoding WAL value: %w", err)
		}
	default:
		return key, mv, fmt.Errorf("store: unknown WAL record tag %q", tag)
	}
	return key, mv, nil
}

// decodeRawRecord inverts rawRecord. The payload must be exactly one
// key (a Delete) or one key and one value (a Put); it is copied out, so
// its alignment does not matter.
func decodeRawRecord[K cmp.Ordered, V any](tag byte, payload []byte) (key K, mv mval[V], err error) {
	key, rest, ok := rawfmt.Cut[K](payload)
	switch {
	case !ok:
	case tag == walTagRawDel:
		mv.dead = true
	case tag == walTagRawPut:
		mv.val, rest, ok = rawfmt.Cut[V](rest)
	default:
		ok = false
	}
	if !ok || len(rest) != 0 {
		return key, mv, fmt.Errorf("store: WAL record %q of %d bytes is neither a raw delete nor a raw put", tag, len(payload))
	}
	return key, mv, nil
}

// frameEnd maps a blockio.Reader error to how the log ended.
func frameEnd(err error) walEnd {
	switch {
	case err == io.EOF:
		return walClean
	case errors.Is(err, io.ErrUnexpectedEOF):
		return walTorn // a crash-interrupted append: expected
	}
	return walCorrupt // checksum/length damage: preserve the file
}

// replayWAL applies every intact record of one log file in append order,
// returning the applied count and how the stream ended (see walEnd).
// Replay never errors on damage — the intact prefix is exactly the
// history worth recovering either way — but the caller uses the
// classification to decide the file's fate: delete a clean or torn log,
// preserve a corrupt one. Only a log the filesystem refuses to read, or
// one whose intact header this DB[K, V] cannot replay, is an error.
func replayWAL[K cmp.Ordered, V any](path string, apply func(key K, mv mval[V])) (n int, end walEnd, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, walCorrupt, fmt.Errorf("store: opening WAL: %w", err)
	}
	defer f.Close()
	return readWAL(f, apply)
}

// readWAL is replayWAL over any byte stream.
func readWAL[K cmp.Ordered, V any](r io.Reader, apply func(key K, mv mval[V])) (n int, end walEnd, err error) {
	magic := make([]byte, len(walMagicGob))
	if _, err := io.ReadFull(r, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, walTorn, nil // torn before the magic finished: an empty log
		}
		return 0, walCorrupt, fmt.Errorf("store: reading WAL magic: %w", err)
	}
	br := blockio.NewReader(r)
	decode := decodeGobRecord[K, V]
	switch string(magic) {
	case walMagicGob:
	case walMagicRaw:
		tag, hdr, err := br.Next()
		switch {
		case err == io.EOF:
			return 0, walTorn, nil // the preamble's write was cut after the magic
		case err != nil:
			return 0, frameEnd(err), nil
		case tag != walTagHeader:
			return 0, walCorrupt, nil
		}
		if err := checkWALHeader[K, V](hdr); err != nil {
			return 0, walCorrupt, err
		}
		decode = decodeRawRecord[K, V]
	default:
		// The name matched the WAL pattern but the content does not:
		// bit rot in the first bytes. Same policy as damage anywhere
		// else — recover what can be recovered (nothing), preserve the
		// file, keep the store openable — rather than wedging every
		// future Open on a hard error.
		return 0, walCorrupt, nil
	}
	for {
		tag, payload, err := br.Next()
		if err != nil {
			return n, frameEnd(err), nil
		}
		key, mv, err := decode(tag, payload)
		if err != nil {
			return n, walCorrupt, nil // frame intact but content unparseable
		}
		apply(key, mv)
		n++
	}
}
