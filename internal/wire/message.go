package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/rawfmt"
)

// Request is one client operation. ID is client-chosen and echoed by
// the matching response; which other fields are meaningful depends on
// Op: Key for Get/Delete, Key+Val for Put, Keys for GetBatch, Lo/Hi and
// Limit for Range, nothing for Stats.
type Request[K cmp.Ordered, V any] struct {
	ID    uint64
	Op    Op
	Key   K
	Val   V
	Keys  []K
	Lo    K
	Hi    K
	Limit int // Range: max records per response (0 = server's cap)
}

// Response is one operation's answer, matched to its request by ID.
// Field use per op: Found/Val for Get; Vals/FoundAll (aligned with the
// request's keys) for GetBatch; Keys/Vals/More for Range; Stats holds
// an opaque gob blob for Stats; Put/Delete carry nothing.
type Response[K cmp.Ordered, V any] struct {
	ID       uint64
	Op       Op
	Found    bool
	Val      V
	Vals     []V
	FoundAll []bool
	Keys     []K
	More     bool // Range: truncated at the limit; more records exist
	Stats    []byte
}

// sessionHeader is the fixed prelude of every request and response
// payload: id u64 LE + op byte.
const sessionHeader = 8 + 1

// cutArray decodes n raw elements of width bytes from the front of b,
// returning the remainder; ok is false when b holds fewer or n is out of
// range. The copy into a freshly allocated slice is what guarantees
// alignment: the payload's offset inside a read buffer is arbitrary,
// the new backing array is not.
func cutArray[T any](b []byte, n, width int) (out []T, rest []byte, ok bool) {
	if n < 0 || n > MaxBatch || len(b)/width < n {
		return nil, nil, false
	}
	out = make([]T, n)
	copy(mmapio.Bytes(out), b)
	return out, b[n*width:], true
}

// EncodeRequest renders req as a TagRequest payload.
func (c *Codec[K, V]) EncodeRequest(req *Request[K, V]) ([]byte, error) {
	kw, vw := c.raw.KeyWidth, c.raw.ValWidth
	b := make([]byte, 0, sessionHeader+2*kw+vw+4+len(req.Keys)*kw)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = append(b, byte(req.Op))
	switch req.Op {
	case OpGet, OpDelete:
		b = rawfmt.Append(b, req.Key)
	case OpPut:
		b = rawfmt.Append(b, req.Key)
		b = rawfmt.Append(b, req.Val)
	case OpGetBatch:
		if len(req.Keys) > MaxBatch {
			return nil, fmt.Errorf("%w: GetBatch of %d keys exceeds MaxBatch %d", ErrMalformed, len(req.Keys), MaxBatch)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Keys)))
		b = append(b, mmapio.Bytes(req.Keys)...)
	case OpRange:
		b = rawfmt.Append(b, req.Lo)
		b = rawfmt.Append(b, req.Hi)
		b = binary.LittleEndian.AppendUint32(b, uint32(req.Limit))
	case OpStats:
		// header only
	default:
		return nil, fmt.Errorf("%w: unknown request op %q", ErrMalformed, byte(req.Op))
	}
	return b, nil
}

// DecodeRequest parses a TagRequest payload. Every branch checks the
// exact body length for its op — short bodies, impossible counts, and
// trailing bytes are all ErrMalformed, never an over-read.
func (c *Codec[K, V]) DecodeRequest(payload []byte) (*Request[K, V], error) {
	if len(payload) < sessionHeader {
		return nil, fmt.Errorf("%w: request payload of %d bytes has no header", ErrMalformed, len(payload))
	}
	req := &Request[K, V]{
		ID: binary.LittleEndian.Uint64(payload[:8]),
		Op: Op(payload[8]),
	}
	body := payload[sessionHeader:]
	ok := true
	switch req.Op {
	case OpGet, OpDelete:
		req.Key, body, ok = rawfmt.Cut[K](body)
	case OpPut:
		if req.Key, body, ok = rawfmt.Cut[K](body); ok {
			req.Val, body, ok = rawfmt.Cut[V](body)
		}
	case OpGetBatch:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: GetBatch body of %d bytes has no count", ErrMalformed, len(body))
		}
		n := int(binary.LittleEndian.Uint32(body[:4]))
		req.Keys, body, ok = cutArray[K](body[4:], n, c.raw.KeyWidth)
	case OpRange:
		if req.Lo, body, ok = rawfmt.Cut[K](body); ok {
			req.Hi, body, ok = rawfmt.Cut[K](body)
		}
		if !ok || len(body) < 4 {
			return nil, fmt.Errorf("%w: Range body has no bounds and limit", ErrMalformed)
		}
		req.Limit = int(binary.LittleEndian.Uint32(body[:4]))
		body = body[4:]
	case OpStats:
		// header only
	default:
		return nil, fmt.Errorf("%w: unknown request op %q", ErrMalformed, byte(req.Op))
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s request body of %d bytes is too short", ErrMalformed, req.Op, len(payload)-sessionHeader)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s request", ErrMalformed, len(body), req.Op)
	}
	return req, nil
}

// EncodeResponse renders resp as a TagResponse payload.
func (c *Codec[K, V]) EncodeResponse(resp *Response[K, V]) ([]byte, error) {
	kw, vw := c.raw.KeyWidth, c.raw.ValWidth
	n := max(len(resp.Vals), len(resp.Keys))
	b := make([]byte, 0, sessionHeader+5+vw+n*(kw+vw+1)+len(resp.Stats))
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	b = append(b, byte(resp.Op))
	switch resp.Op {
	case OpGet:
		b = append(b, boolByte(resp.Found))
		b = rawfmt.Append(b, resp.Val)
	case OpPut, OpDelete:
		// header only: the response IS the acknowledgment
	case OpGetBatch:
		if len(resp.FoundAll) != len(resp.Vals) {
			return nil, fmt.Errorf("%w: GetBatch response with %d vals but %d found flags",
				ErrMalformed, len(resp.Vals), len(resp.FoundAll))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Vals)))
		for _, f := range resp.FoundAll {
			b = append(b, boolByte(f))
		}
		b = append(b, mmapio.Bytes(resp.Vals)...)
	case OpRange:
		if len(resp.Keys) != len(resp.Vals) {
			return nil, fmt.Errorf("%w: Range response with %d keys but %d vals",
				ErrMalformed, len(resp.Keys), len(resp.Vals))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Keys)))
		b = append(b, boolByte(resp.More))
		b = append(b, mmapio.Bytes(resp.Keys)...)
		b = append(b, mmapio.Bytes(resp.Vals)...)
	case OpStats:
		b = append(b, resp.Stats...)
	default:
		return nil, fmt.Errorf("%w: unknown response op %q", ErrMalformed, byte(resp.Op))
	}
	return b, nil
}

// DecodeResponse parses a TagResponse payload with the same exhaustive
// length discipline as DecodeRequest.
func (c *Codec[K, V]) DecodeResponse(payload []byte) (*Response[K, V], error) {
	if len(payload) < sessionHeader {
		return nil, fmt.Errorf("%w: response payload of %d bytes has no header", ErrMalformed, len(payload))
	}
	resp := &Response[K, V]{
		ID: binary.LittleEndian.Uint64(payload[:8]),
		Op: Op(payload[8]),
	}
	body := payload[sessionHeader:]
	ok := true
	var err error
	switch resp.Op {
	case OpGet:
		if len(body) < 1 {
			return nil, fmt.Errorf("%w: Get response has no found flag", ErrMalformed)
		}
		if resp.Found, err = byteBool(body[0]); err != nil {
			return nil, err
		}
		resp.Val, body, ok = rawfmt.Cut[V](body[1:])
	case OpPut, OpDelete:
		// header only
	case OpGetBatch:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: GetBatch response has no count", ErrMalformed)
		}
		n := int(binary.LittleEndian.Uint32(body[:4]))
		body = body[4:]
		if n < 0 || n > MaxBatch || len(body) < n {
			return nil, fmt.Errorf("%w: GetBatch response counts %d in a %d-byte body", ErrMalformed, n, len(body))
		}
		resp.FoundAll = make([]bool, n)
		for i := range resp.FoundAll {
			if resp.FoundAll[i], err = byteBool(body[i]); err != nil {
				return nil, err
			}
		}
		resp.Vals, body, ok = cutArray[V](body[n:], n, c.raw.ValWidth)
	case OpRange:
		if len(body) < 5 {
			return nil, fmt.Errorf("%w: Range response has no count", ErrMalformed)
		}
		n := int(binary.LittleEndian.Uint32(body[:4]))
		if resp.More, err = byteBool(body[4]); err != nil {
			return nil, err
		}
		if resp.Keys, body, ok = cutArray[K](body[5:], n, c.raw.KeyWidth); ok {
			resp.Vals, body, ok = cutArray[V](body, n, c.raw.ValWidth)
		}
	case OpStats:
		resp.Stats, body = body, nil
	default:
		return nil, fmt.Errorf("%w: unknown response op %q", ErrMalformed, byte(resp.Op))
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s response body of %d bytes is too short", ErrMalformed, resp.Op, len(payload)-sessionHeader)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s response", ErrMalformed, len(body), resp.Op)
	}
	return resp, nil
}

// EncodeError renders a TagError payload: the failed request's ID and a
// human-readable reason.
func EncodeError(id uint64, msg string) []byte {
	b := make([]byte, 0, 8+len(msg))
	b = binary.LittleEndian.AppendUint64(b, id)
	return append(b, msg...)
}

// DecodeError parses a TagError payload.
func DecodeError(payload []byte) (id uint64, msg string, err error) {
	if len(payload) < 8 {
		return 0, "", fmt.Errorf("%w: error payload of %d bytes has no id", ErrMalformed, len(payload))
	}
	return binary.LittleEndian.Uint64(payload[:8]), string(payload[8:]), nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// byteBool is strict: a found flag is 0 or 1, anything else is a
// malformed message, so a fuzzer's 0x02 cannot round-trip to 0x01.
func byteBool(b byte) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("%w: boolean byte %d", ErrMalformed, b)
	}
	return b == 1, nil
}
