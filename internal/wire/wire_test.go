package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func mustCodec[K int64 | uint64 | float64, V int64 | uint64 | float64 | uint32](t *testing.T) *Codec[K, V] {
	t.Helper()
	c, err := NewCodec[K, V]()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCodecEligibility(t *testing.T) {
	if _, err := NewCodec[int, string](); err == nil {
		t.Fatal("NewCodec accepted a string value type")
	}
	if _, err := NewCodec[uint64, [2]int](); err == nil {
		t.Fatal("NewCodec accepted an array value type")
	}
	if _, err := NewCodec[uint64, float32](); err != nil {
		t.Fatalf("NewCodec refused uint64/float32: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	c := mustCodec[uint64, int64](t)
	h := c.Hello()
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round trip: got %+v want %+v", got, h)
	}
	if err := c.CheckHello(got); err != nil {
		t.Fatalf("own hello refused: %v", err)
	}
}

// TestHelloGolden pins the handshake payload byte for byte: magic,
// version 1 (u32 LE), endian tag 1 (little), then uint64 keys (kind 11,
// 8 bytes) and int64 values (kind 6, 8 bytes).
func TestHelloGolden(t *testing.T) {
	h := mustCodec[uint64, int64](t).Hello()
	if h.Endian != "little" {
		t.Skip("the golden hello is a little-endian host's")
	}
	want := []byte("ILWP\x01\x01\x00\x00\x00\x01\x0b\x08\x06\x08")
	if got := EncodeHello(h); !bytes.Equal(got, want) {
		t.Fatalf("hello payload\n got % x\nwant % x", got, want)
	}
}

func TestHelloRefusals(t *testing.T) {
	c := mustCodec[uint64, int64](t)
	h := c.Hello()

	future := h
	future.Version = 99
	if err := c.CheckHello(future); !errors.Is(err, ErrVersionUnknown) {
		t.Fatalf("future version: got %v, want ErrVersionUnknown", err)
	}

	foreign := h
	if foreign.Endian == "little" {
		foreign.Endian = "big"
	} else {
		foreign.Endian = "little"
	}
	if err := c.CheckHello(foreign); !errors.Is(err, ErrPlatform) {
		t.Fatalf("foreign endian: got %v, want ErrPlatform", err)
	}

	narrow := h
	narrow.KeyWidth = 4
	narrow.KeyKind = reflect.Uint32
	if err := c.CheckHello(narrow); !errors.Is(err, ErrPlatform) {
		t.Fatalf("narrow keys: got %v, want ErrPlatform", err)
	}

	floatVals := h
	floatVals.ValKind = reflect.Float64
	if err := c.CheckHello(floatVals); !errors.Is(err, ErrPlatform) {
		t.Fatalf("float values: got %v, want ErrPlatform", err)
	}

	narrowVals := h
	narrowVals.ValWidth = 4
	if err := c.CheckHello(narrowVals); !errors.Is(err, ErrPlatform) {
		t.Fatalf("narrow values: got %v, want ErrPlatform", err)
	}

	// A future-version hello still decodes (so it can be refused by
	// number), but a wrong magic or torn payload does not.
	if _, err := DecodeHello(EncodeHello(future)); err != nil {
		t.Fatalf("well-formed future hello failed to decode: %v", err)
	}
	bad := EncodeHello(h)
	bad[0] ^= 0xff
	if _, err := DecodeHello(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: got %v, want ErrMalformed", err)
	}
	if _, err := DecodeHello(EncodeHello(h)[:5]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short hello: got %v, want ErrMalformed", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	c := mustCodec[uint64, int64](t)
	reqs := []*Request[uint64, int64]{
		{ID: 1, Op: OpGet, Key: 42},
		{ID: 2, Op: OpDelete, Key: 0xffffffffffffffff},
		{ID: 3, Op: OpPut, Key: 7, Val: -9},
		{ID: 4, Op: OpGetBatch, Keys: []uint64{1, 2, 3, 1 << 60}},
		{ID: 5, Op: OpGetBatch, Keys: []uint64{}},
		{ID: 6, Op: OpRange, Lo: 10, Hi: 20, Limit: 100},
		{ID: 7, Op: OpStats},
	}
	for _, req := range reqs {
		payload, err := c.EncodeRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		got, err := c.DecodeRequest(payload)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s round trip: got %+v want %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	c := mustCodec[uint64, int64](t)
	resps := []*Response[uint64, int64]{
		{ID: 1, Op: OpGet, Found: true, Val: -5},
		{ID: 2, Op: OpGet, Found: false},
		{ID: 3, Op: OpPut},
		{ID: 4, Op: OpDelete},
		{ID: 5, Op: OpGetBatch, Vals: []int64{9, 0, 11}, FoundAll: []bool{true, false, true}},
		{ID: 6, Op: OpGetBatch, Vals: []int64{}, FoundAll: []bool{}},
		{ID: 7, Op: OpRange, Keys: []uint64{1, 2}, Vals: []int64{10, 20}, More: true},
		{ID: 8, Op: OpStats, Stats: []byte("gob-blob")},
	}
	for _, resp := range resps {
		payload, err := c.EncodeResponse(resp)
		if err != nil {
			t.Fatalf("%s: %v", resp.Op, err)
		}
		got, err := c.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("%s: %v", resp.Op, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("%s round trip: got %+v want %+v", resp.Op, got, resp)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	payload := EncodeError(99, "store: db is closed")
	id, msg, err := DecodeError(payload)
	if err != nil || id != 99 || msg != "store: db is closed" {
		t.Fatalf("error round trip: %d %q %v", id, msg, err)
	}
	if _, _, err := DecodeError(payload[:4]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short error payload: got %v, want ErrMalformed", err)
	}
}

// TestDecodeRejectsMutations runs every structural mutation the decoder
// must refuse: truncation at each boundary, trailing garbage, and
// impossible counts. No panics, no over-reads — every case is a clean
// ErrMalformed.
func TestDecodeRejectsMutations(t *testing.T) {
	c := mustCodec[uint64, int64](t)
	reqPayload, err := c.EncodeRequest(&Request[uint64, int64]{ID: 1, Op: OpGetBatch, Keys: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(reqPayload); cut++ {
		if _, err := c.DecodeRequest(reqPayload[:cut]); err == nil {
			t.Fatalf("request truncated to %d bytes decoded cleanly", cut)
		}
	}
	if _, err := c.DecodeRequest(append(append([]byte{}, reqPayload...), 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: got %v, want ErrMalformed", err)
	}
	// A count claiming more keys than the body holds must be refused
	// before any allocation proportional to the claim.
	huge := append([]byte{}, reqPayload...)
	huge[9], huge[10], huge[11], huge[12] = 0xff, 0xff, 0xff, 0x7f
	if _, err := c.DecodeRequest(huge); !errors.Is(err, ErrMalformed) {
		t.Fatalf("inflated count: got %v, want ErrMalformed", err)
	}

	respPayload, err := c.EncodeResponse(&Response[uint64, int64]{
		ID: 2, Op: OpRange, Keys: []uint64{5}, Vals: []int64{50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(respPayload); cut++ {
		if _, err := c.DecodeResponse(respPayload[:cut]); err == nil {
			t.Fatalf("response truncated to %d bytes decoded cleanly", cut)
		}
	}
	unknown := append([]byte{}, respPayload...)
	unknown[8] = 'z'
	if _, err := c.DecodeResponse(unknown); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown op: got %v, want ErrMalformed", err)
	}
}

func TestFrameBytes(t *testing.T) {
	payload := EncodeError(3, "boom")
	frame, err := FrameBytes(TagError, payload)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != TagError || len(frame) != 9+len(payload) {
		t.Fatalf("frame shape: tag %q len %d", frame[0], len(frame))
	}
}

// TestCodecAllocs pins the point-operation codec at one allocation per
// call: the payload buffer, the decoded message or the frame. Single
// keys and values are copied in and out of the payload with no scratch.
func TestCodecAllocs(t *testing.T) {
	c := mustCodec[uint64, uint64](t)
	get := &Request[uint64, uint64]{ID: 1, Op: OpGet, Key: 42}
	put := &Request[uint64, uint64]{ID: 2, Op: OpPut, Key: 42, Val: 7}
	hit := &Response[uint64, uint64]{ID: 1, Op: OpGet, Found: true, Val: 7}
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	getPayload, putPayload := must(c.EncodeRequest(get)), must(c.EncodeRequest(put))
	hitPayload := must(c.EncodeResponse(hit))
	cases := []struct {
		name string
		call func() error
	}{
		{"EncodeRequest Get", func() error { _, err := c.EncodeRequest(get); return err }},
		{"DecodeRequest Get", func() error { _, err := c.DecodeRequest(getPayload); return err }},
		{"DecodeRequest Put", func() error { _, err := c.DecodeRequest(putPayload); return err }},
		{"EncodeResponse Get", func() error { _, err := c.EncodeResponse(hit); return err }},
		{"DecodeResponse Get", func() error { _, err := c.DecodeResponse(hitPayload); return err }},
		{"FrameBytes", func() error { _, err := FrameBytes(TagResponse, hitPayload); return err }},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := tc.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > 1 {
			t.Errorf("%s: %v allocs per call, want at most 1", tc.name, allocs)
		}
	}
}
