package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/rawfmt"
)

// FuzzWireRoundTrip throws arbitrary bytes at every wire decoder — as a
// raw frame stream and as bare payloads — and holds the decoders to the
// segment fuzz targets' standard: malformed, truncated, and bit-flipped
// input must error cleanly, never panic and never over-read, and
// anything that does decode must re-encode to a payload that decodes to
// the same message.
func FuzzWireRoundTrip(f *testing.F) {
	c, err := NewCodec[uint64, int64]()
	if err != nil {
		f.Fatal(err)
	}
	seed := func(payload []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 1, Op: OpGet, Key: 42}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 2, Op: OpPut, Key: 7, Val: -1}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 3, Op: OpGetBatch, Keys: []uint64{1, 2, 3}}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 4, Op: OpRange, Lo: 1, Hi: 9, Limit: 5}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 5, Op: OpStats}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 6, Op: OpGet, Found: true, Val: 9}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 7, Op: OpGetBatch, Vals: []int64{5}, FoundAll: []bool{true}}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 8, Op: OpRange, Keys: []uint64{1}, Vals: []int64{2}, More: true}))
	f.Add(EncodeHello(Hello{Version: 1, Contract: rawfmt.Contract{Endian: "little", KeyKind: 11, KeyWidth: 8, ValKind: 6, ValWidth: 8}}))
	f.Add(EncodeError(9, "boom"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// As bare payloads: every decoder must survive arbitrary bytes,
		// and a successful decode must round-trip to the same message.
		if req, err := c.DecodeRequest(data); err == nil {
			re, err := c.EncodeRequest(req)
			if err != nil {
				t.Fatalf("decoded request failed to re-encode: %v", err)
			}
			again, err := c.DecodeRequest(re)
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip diverged: %+v vs %+v (%v)", req, again, err)
			}
		}
		if resp, err := c.DecodeResponse(data); err == nil {
			re, err := c.EncodeResponse(resp)
			if err != nil {
				t.Fatalf("decoded response failed to re-encode: %v", err)
			}
			again, err := c.DecodeResponse(re)
			if err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response round trip diverged: %+v vs %+v (%v)", resp, again, err)
			}
		}
		if h, err := DecodeHello(data); err == nil {
			if got, err := DecodeHello(EncodeHello(h)); err != nil || got != h {
				t.Fatalf("hello round trip diverged: %+v vs %+v (%v)", h, got, err)
			}
		}
		if id, msg, err := DecodeError(data); err == nil {
			id2, msg2, err := DecodeError(EncodeError(id, msg))
			if err != nil || id2 != id || msg2 != msg {
				t.Fatalf("error round trip diverged")
			}
		}

		// As a frame stream: the connection read path is blockio.Reader
		// over the socket; arbitrary bytes must never panic it, and any
		// frame it does yield must hit the payload decoders cleanly.
		r := blockio.NewReaderLimit(bytes.NewReader(data), MaxMessage)
		for {
			tag, payload, err := r.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !isCorrupt(err) {
					t.Fatalf("frame walk: unexpected error class %v", err)
				}
				break
			}
			switch tag {
			case TagRequest:
				c.DecodeRequest(payload)
			case TagResponse:
				c.DecodeResponse(payload)
			case TagHello:
				DecodeHello(payload)
			case TagError, TagRefuse:
				DecodeError(payload)
			}
		}
	})
}

func isCorrupt(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == blockio.ErrCorrupt {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// FuzzWireDecode holds the three handshake and session decoders — the
// parsers an untrusted peer feeds — to an exact inverse: arbitrary bytes
// never panic them, and any payload one of them accepts re-encodes to
// exactly the same bytes, so no two payloads decode to one message.
func FuzzWireDecode(f *testing.F) {
	c, err := NewCodec[uint64, int64]()
	if err != nil {
		f.Fatal(err)
	}
	seed := func(payload []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 1, Op: OpGet, Key: 42}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 2, Op: OpPut, Key: 7, Val: -1}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 3, Op: OpDelete, Key: 9}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 4, Op: OpGetBatch, Keys: []uint64{1, 2, 3}}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 5, Op: OpRange, Lo: 1, Hi: 9, Limit: 5}))
	seed(c.EncodeRequest(&Request[uint64, int64]{ID: 6, Op: OpStats}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 7, Op: OpGet, Found: true, Val: 9}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 8, Op: OpPut}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 9, Op: OpGetBatch, Vals: []int64{5, 0}, FoundAll: []bool{true, false}}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 10, Op: OpRange, Keys: []uint64{1}, Vals: []int64{2}, More: true}))
	seed(c.EncodeResponse(&Response[uint64, int64]{ID: 11, Op: OpStats, Stats: []byte("gob")}))
	f.Add(EncodeHello(c.Hello()))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			if re := EncodeHello(h); !bytes.Equal(re, data) {
				t.Fatalf("hello %+v re-encodes to % x, decoded from % x", h, re, data)
			}
		}
		if req, err := c.DecodeRequest(data); err == nil {
			re, err := c.EncodeRequest(req)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("request %+v re-encodes to % x (%v), decoded from % x", req, re, err, data)
			}
		}
		if resp, err := c.DecodeResponse(data); err == nil {
			re, err := c.EncodeResponse(resp)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("response %+v re-encodes to % x (%v), decoded from % x", resp, re, err, data)
			}
		}
	})
}
