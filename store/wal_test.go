package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/rawfmt"
)

// walOp is one logged write: a Put of val, or a Delete when dead.
type walOp struct {
	key  uint64
	val  uint64
	dead bool
}

// goldenWALOps is the closed-form history every golden log in
// testdata/wal records, in append order: Puts of key i*7919 mod 1009
// with value 3k+1 for i < 200, then Deletes of every 7th of those keys,
// then overwrites of every 10th with value 5k+2 (resurrecting the
// deleted multiples of 70).
func goldenWALOps() []walOp {
	k := func(i int) uint64 { return uint64(i * 7919 % 1009) }
	var ops []walOp
	for i := 0; i < 200; i++ {
		ops = append(ops, walOp{key: k(i), val: 3*k(i) + 1})
	}
	for i := 0; i < 200; i += 7 {
		ops = append(ops, walOp{key: k(i), dead: true})
	}
	for i := 0; i < 200; i += 10 {
		ops = append(ops, walOp{key: k(i), val: 5*k(i) + 2})
	}
	return ops
}

func goldenWALPath(name string) string { return filepath.Join("testdata", "wal", name) }

// walRecord returns the tag and payload a DB[K, uint64] logs for op,
// through the production encoder of its format.
func walRecord[K cmp.Ordered](w *walWriter[K, uint64], key K, op walOp) (byte, []byte) {
	mv := mval[uint64]{val: op.val, dead: op.dead}
	if rawDB[K, uint64]() {
		return w.rawRecord(key, mv)
	}
	tag, payload, err := encodeGobRecord(key, mv)
	if err != nil {
		panic(err)
	}
	return tag, payload
}

// writeWALFile writes ops through the production writer — createWAL,
// append, seal — and returns the log file's bytes.
func writeWALFile[K cmp.Ordered](t *testing.T, ops []walOp, key func(uint64) K) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := createWAL[K, uint64](dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.append(walRecord(w, key(op.key), op)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayOps replays a log into the ops it applies, in order.
func replayOps[K cmp.Ordered](t *testing.T, path string, key func(uint64) K) ([]walOp, walEnd) {
	t.Helper()
	byKey := map[K]uint64{}
	for _, op := range goldenWALOps() {
		byKey[key(op.key)] = op.key
	}
	var got []walOp
	_, end, err := replayWAL(path, func(k K, mv mval[uint64]) {
		got = append(got, walOp{key: byKey[k], val: mv.val, dead: mv.dead})
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, end
}

func checkGoldenWAL[K cmp.Ordered](t *testing.T, name string, key func(uint64) K) {
	t.Helper()
	got, end := replayOps(t, goldenWALPath(name), key)
	if end != walClean {
		t.Fatalf("%s: replay ended %d, want clean", name, end)
	}
	want := goldenWALOps()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestWALGoldenReplay pins the log formats: the v1 gob logs an earlier
// build wrote — for uint64 keys and values, which now log raw, and for
// string keys, which still log through gob — and the v2 raw log all
// replay to the closed-form history record by record, and the logs this
// build still writes serialize to exactly the golden bytes.
func TestWALGoldenReplay(t *testing.T) {
	u64 := func(k uint64) uint64 { return k }
	str := func(k uint64) string { return fmt.Sprint("k", k) }
	t.Run("v1-u64", func(t *testing.T) { checkGoldenWAL(t, "v1-u64.wal", u64) })
	t.Run("v1-str", func(t *testing.T) {
		checkGoldenWAL(t, "v1-str.wal", str)
		checkWALBytes(t, "v1-str.wal", writeWALFile(t, goldenWALOps(), str))
	})
	t.Run("v2-u64", func(t *testing.T) {
		if rawfmt.HostEndian() != "little" {
			t.Skip("the golden raw log holds little-endian records")
		}
		checkGoldenWAL(t, "v2-u64.wal", u64)
		checkWALBytes(t, "v2-u64.wal", writeWALFile(t, goldenWALOps(), u64))
	})
}

func checkWALBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	golden, err := os.ReadFile(goldenWALPath(name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("%s: this build writes %d bytes that differ from the %d golden bytes", name, len(got), len(golden))
	}
}

// TestWALRawFrameLayout pins the v2 byte layout field by field: the
// magic, a header frame of version, endian, and key and value kind and
// width, and one frame per record holding the raw key (and value).
func TestWALRawFrameLayout(t *testing.T) {
	if rawfmt.HostEndian() != "little" {
		t.Skip("spells out little-endian records")
	}
	ops := []walOp{{key: 0x0102030405060708, val: 0x1112131415161718}, {key: 9, dead: true}}
	got := writeWALFile(t, ops, func(k uint64) uint64 { return k })
	want := []byte("ILWAL\x02")
	want = blockio.AppendFrame(want, 'h', []byte{2, 'l', 11, 8, 11, 8}) // reflect.Uint64 == 11
	want = blockio.AppendFrame(want, 'p', binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, ops[0].key), ops[0].val))
	want = blockio.AppendFrame(want, 'd', binary.LittleEndian.AppendUint64(nil, 9))
	if !bytes.Equal(got, want) {
		t.Fatalf("raw log\n got % x\nwant % x", got, want)
	}
}

// walImage is one log's bytes plus where each of its frames starts: for
// a raw log the header frame first, then one frame per record.
type walImage struct {
	bytes    []byte
	starts   []int
	recFirst int // index in starts of the first record frame
}

// buildWALImage assembles a log of ops the way the writer does — the
// preamble, then AppendFrame over each production-encoded record — in
// memory, recording the frame boundaries.
func buildWALImage(raw bool, ops []walOp) walImage {
	var img walImage
	if raw {
		img.bytes = walPreamble[uint64, uint64]()
		img.starts = []int{len(walMagicRaw)}
		img.recFirst = 1
	} else {
		img.bytes = []byte(walMagicGob)
	}
	w := &walWriter[uint64, uint64]{}
	for _, op := range ops {
		var tag byte
		var payload []byte
		if raw {
			tag, payload = w.rawRecord(op.key, mval[uint64]{val: op.val, dead: op.dead})
		} else {
			var err error
			tag, payload, err = encodeGobRecord(op.key, mval[uint64]{val: op.val, dead: op.dead})
			if err != nil {
				panic(err)
			}
		}
		img.starts = append(img.starts, len(img.bytes))
		img.bytes = blockio.AppendFrame(img.bytes, tag, payload)
	}
	return img
}

// expectWAL models replay of img damaged into data — a prefix of the
// log, with the bit at byte p flipped when p >= 0 — from where the
// damage sits alone: the records it applies (every frame wholly before
// the first cut or flipped one) and how it ends. A stream ending at a
// record boundary is clean; a cut frame, or a flipped length that now
// runs past the end, is torn; any other flip is corrupt.
func expectWAL(img walImage, data []byte, p int) (applied int, end walEnd) {
	keep := len(data)
	if keep < len(walMagicGob) {
		return 0, walTorn
	}
	if p >= 0 && p < len(walMagicGob) {
		return 0, walCorrupt
	}
	recs := 0
	for i, s := range img.starts {
		if s == keep {
			if i < img.recFirst {
				return 0, walTorn // a raw log cut between its magic and header
			}
			return recs, walClean
		}
		e := len(img.bytes)
		if i+1 < len(img.starts) {
			e = img.starts[i+1]
		}
		if damaged := p >= s && p < e; !damaged && e <= keep {
			if i >= img.recFirst {
				recs++
			}
			continue
		}
		if keep-s < blockio.HeaderSize {
			return recs, walTorn
		}
		n := binary.LittleEndian.Uint32(data[s+1 : s+5])
		if n > blockio.MaxBlock {
			return recs, walCorrupt
		}
		if s+blockio.HeaderSize+int(n) > keep {
			return recs, walTorn
		}
		return recs, walCorrupt
	}
	return recs, walClean
}

// fuzzWALOps derives a history of n writes: Puts of key i*7919 mod 1009
// with a varying value, every fifth write a Delete.
func fuzzWALOps(n int) []walOp {
	ops := make([]walOp, n)
	for i := range ops {
		k := uint64(i * 7919 % 1009)
		if i%5 == 4 {
			ops[i] = walOp{key: k, dead: true}
		} else {
			ops[i] = walOp{key: k, val: k*2654435761 + uint64(i)}
		}
	}
	return ops
}

// FuzzWALReplay replays v1 (gob) and v2 (raw) logs cut to any length
// and with any one bit flipped. Replay must never panic, must apply
// exactly the records wholly before the damage, in order, and must
// classify the end — clean, torn or corrupt — the way expectWAL reads
// the damage's position.
func FuzzWALReplay(f *testing.F) {
	f.Add(true, uint8(20), uint16(0), uint16(0), uint8(0))  // clean v2
	f.Add(false, uint8(20), uint16(0), uint16(0), uint8(0)) // clean v1
	f.Add(true, uint8(20), uint16(3), uint16(0), uint8(0))  // torn tail
	f.Add(false, uint8(20), uint16(3), uint16(0), uint8(0))
	f.Add(true, uint8(20), uint16(17), uint16(0), uint8(0))  // cut at a record boundary
	f.Add(true, uint8(20), uint16(0), uint16(200), uint8(5)) // flip mid-log
	f.Add(false, uint8(20), uint16(0), uint16(200), uint8(5))
	f.Add(true, uint8(3), uint16(0), uint16(3), uint8(1))  // flip in the magic
	f.Add(true, uint8(3), uint16(0), uint16(9), uint8(7))  // flip in the header's length
	f.Add(true, uint8(3), uint16(0), uint16(17), uint8(2)) // flip in the header payload
	f.Add(true, uint8(0), uint16(1), uint16(0), uint8(0))  // raw log cut inside its header
	f.Add(true, uint8(20), uint16(30), uint16(400), uint8(3))
	f.Fuzz(func(t *testing.T, raw bool, n uint8, cut, flip uint16, bit uint8) {
		ops := fuzzWALOps(int(n))
		img := buildWALImage(raw, ops)
		data := bytes.Clone(img.bytes[:len(img.bytes)-int(cut)%(len(img.bytes)+1)])
		p := -1
		if flip != 0 && len(data) > 0 {
			p = (int(flip) - 1) % len(data)
			data[p] ^= 1 << (bit % 8)
		}
		var got []walOp
		applied, end, err := readWAL(bytes.NewReader(data), func(k uint64, mv mval[uint64]) {
			got = append(got, walOp{key: k, val: mv.val, dead: mv.dead})
		})
		if err != nil {
			t.Fatalf("replay errored on damage: %v", err)
		}
		wantN, wantEnd := expectWAL(img, data, p)
		if applied != len(got) || applied != wantN || end != wantEnd {
			t.Fatalf("replay of %d/%d bytes (flip at %d) applied %d (%d reported), ended %d; want %d records, end %d",
				len(data), len(img.bytes), p, len(got), applied, end, wantN, wantEnd)
		}
		if !slices.Equal(got, ops[:applied]) {
			t.Fatalf("replay applied %v, not the first %d written records", got, applied)
		}
	})
}

// TestDBWALRefusesTypeMismatch: a raw log names the key and value kinds
// and widths that wrote it, so reopening the directory as a DB of other
// types must fail Open with an error naming the mismatch — not
// misdecode the records, and not quarantine an intact log as corrupt.
// Reopening with the right types then recovers every record.
func TestDBWALRefusesTypeMismatch(t *testing.T) {
	cfg := DBConfig{MemLimit: 1 << 20} // never freezes: the records stay in the log
	cases := []struct {
		name string
		want string // the words the error must contain
		open func(dir string, cfg DBConfig) error
	}{
		{"int64 keys", "keys are int64 (8 bytes)", openAs[int64, uint64]},
		{"uint32 keys", "keys are uint32 (4 bytes)", openAs[uint32, uint64]},
		{"float64 values", "values are float64 (8 bytes)", openAs[uint64, float64]},
		{"uint32 values", "values are uint32 (4 bytes)", openAs[uint64, uint32]},
		{"string keys", "keys are string (not fixed-width)", openAs[string, uint64]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open[uint64, uint64](dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 50; i++ {
				if err := db.Put(i, i*3); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Delete(7); err != nil {
				t.Fatal(err)
			}
			crashDB(db)

			err = c.open(dir, cfg)
			if err == nil {
				t.Fatalf("Open as %s accepted a log of uint64 keys and values", c.name)
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "WAL records hold uint64 keys (8 bytes) and uint64 values (8 bytes)") {
				t.Fatalf("Open as %s: error %q does not name the mismatch (%q)", c.name, err, c.want)
			}
			if kept := listFiles(t, dir, "wal-*.log.corrupt"); len(kept) != 0 {
				t.Fatalf("a type mismatch quarantined the log: %v", kept)
			}
			if wals := listFiles(t, dir, "wal-*.log"); len(wals) != 1 {
				t.Fatalf("after the refused Open: WAL files %v, want the one log left in place", wals)
			}

			reopened, err := Open[uint64, uint64](dir, cfg)
			if err != nil {
				t.Fatalf("reopening with the writing types: %v", err)
			}
			defer reopened.Close()
			for i := uint64(0); i < 50; i++ {
				v, ok := reopened.Get(i)
				if wantOK := i != 7; ok != wantOK || (ok && v != i*3) {
					t.Fatalf("recovered Get(%d) = %d, %v; want %d, %v", i, v, ok, i*3, wantOK)
				}
			}
		})
	}
}

// openAs opens dir as a DB[K, V] and closes it again, returning Open's
// error.
func openAs[K cmp.Ordered, V any](dir string, cfg DBConfig) error {
	db, err := Open[K, V](dir, cfg)
	if err == nil {
		db.Close()
	}
	return err
}

// TestDBDurablePutAllocs pins the raw log's append path at zero
// allocations: a durable Put or Delete of fixed-width types encodes its
// record into the log's reused buffers and hands the frame to one
// write. The key is overwritten, so the memtable map never grows — map
// growth is the memtable's cost, not the log's.
func TestDBDurablePutAllocs(t *testing.T) {
	db, err := Open[uint64, uint64](t.TempDir(), DBConfig{MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put(7, 0); err != nil { // size the reused buffers once
		t.Fatal(err)
	}
	var v uint64
	put := testing.AllocsPerRun(1000, func() {
		v++
		if err := db.Put(7, v); err != nil {
			t.Fatal(err)
		}
	})
	del := testing.AllocsPerRun(1000, func() {
		if err := db.Delete(7); err != nil {
			t.Fatal(err)
		}
	})
	if put != 0 || del != 0 {
		t.Fatalf("durable Put: %v allocs, Delete: %v allocs; want 0", put, del)
	}
}
