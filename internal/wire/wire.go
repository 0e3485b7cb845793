// Package wire defines the binary protocol the TCP serving layer
// speaks: the message grammar shared by implicitlayout/server and
// implicitlayout/client.
//
// The wire reuses internal/blockio's frame grammar verbatim — every
// message is one frame:
//
//	frame := tag(1) | length(4, LE) | crc32c(4, LE) | payload
//
// so a flipped bit anywhere in a message fails its checksum, a message
// cut short by a dying connection surfaces as io.ErrUnexpectedEOF, and
// the read loops on both ends are blockio.Reader.Next — the same code
// that walks segment files walks the socket.
//
// A connection opens with version negotiation: the client sends one
// Hello frame carrying the protocol version and the platform contract
// (internal/rawfmt: byte order, key/value kinds and element widths),
// and the server answers with an accept or a refusal that names the
// reason. An unknown version is refused, never guessed at (the segment
// codec's errSegVersionUnknown rule, applied to the socket), and a
// contract mismatch is refused the way a mapped segment from a foreign
// machine is: bulk key and value arrays cross the wire as raw
// native-endian memory dumps, encoded exactly as raw segment array
// frames are, so both ends must agree on the bytes before any data
// moves.
//
// After the handshake the connection is a full-duplex pipeline:
// requests carry client-chosen IDs, the server answers each when its
// work completes — out of order when a slow Range trails fast Gets —
// and the client matches responses back to callers by ID. Protocol
// integers (IDs, counts, limits) are little-endian like the frame
// headers; only the bulk arrays are native-endian, and the handshake
// has already proven both ends native-identical.
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/rawfmt"
)

const (
	// Magic opens every Hello payload; a server reading anything else
	// is not talking to this protocol at all.
	Magic = "ILWP\x01"

	// Version is the protocol version this build speaks.
	Version = 1

	// MaxMessage caps one message's payload. Both ends read the socket
	// through blockio.NewReaderLimit with this cap, so a nine-byte
	// header claiming a gigabyte payload is refused as corrupt instead
	// of allocated — an untrusted peer cannot buy memory with a length
	// field.
	MaxMessage = 16 << 20

	// MaxBatch caps the element count of one GetBatch or Range message.
	// With 8-byte keys and values the largest message it permits sits
	// well inside MaxMessage; decoders refuse larger counts before
	// allocating.
	MaxBatch = 1 << 19
)

// Frame tags. Handshake frames carry no request ID; session frames
// (request, response, error) start their payload with one.
const (
	TagHello    byte = 'H' // client → server: version + platform contract
	TagHelloOK  byte = 'O' // server → client: handshake accepted
	TagRefuse   byte = 'F' // server → client: handshake refused, payload names why
	TagRequest  byte = 'q' // client → server: one operation
	TagResponse byte = 'R' // server → client: one operation's answer
	TagError    byte = 'E' // server → client: one operation failed
)

// Op identifies a request's operation, carried as one payload byte.
type Op byte

const (
	OpGet      Op = 'g'
	OpGetBatch Op = 'b'
	OpRange    Op = 'r'
	OpPut      Op = 'p'
	OpDelete   Op = 'd'
	OpStats    Op = 's'
)

// String names an op for errors and stats.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "Get"
	case OpGetBatch:
		return "GetBatch"
	case OpRange:
		return "Range"
	case OpPut:
		return "Put"
	case OpDelete:
		return "Delete"
	case OpStats:
		return "Stats"
	}
	return fmt.Sprintf("Op(%q)", byte(o))
}

// ErrVersionUnknown marks a handshake whose protocol version this build
// does not know. Mirroring the segment codec's rule, an unknown version
// is refused with its number named — never served on a guess.
var ErrVersionUnknown = errors.New("wire: protocol version unknown to this build")

// ErrPlatform marks a handshake whose platform contract (byte order,
// key/value kinds or widths) does not match this end's: raw array
// frames would be reinterpreted as garbage, so the connection is
// refused instead.
var ErrPlatform = errors.New("wire: platform contract mismatch")

// ErrMalformed marks a frame whose payload does not parse as the
// message its tag claims: wrong length arithmetic, impossible counts,
// trailing bytes. The checksum already passed, so this is a peer
// speaking the grammar but not the protocol.
var ErrMalformed = errors.New("wire: malformed message")

// Hello is the handshake's content: the protocol version and the
// platform contract, the same facts a raw segment header pins.
type Hello struct {
	Version int
	rawfmt.Contract
}

// helloSize is the fixed Hello payload: magic, version u32, endian
// byte, then kind/width byte pairs for key and value.
const helloSize = len(Magic) + 4 + 1 + 4

func endianByte(e string) byte {
	if e == "big" {
		return 2
	}
	return 1
}

// Codec carries one (K, V) pair's wire facts: the platform contract its
// raw values and arrays are encoded under, as negotiated in the
// handshake.
type Codec[K cmp.Ordered, V any] struct {
	raw rawfmt.Contract
}

// NewCodec builds the codec for one key/value type pair, refusing types
// the raw wire format cannot carry (strings, structs, slices — anything
// the segment codec would route to gob instead of a raw dump).
func NewCodec[K cmp.Ordered, V any]() (*Codec[K, V], error) {
	c, err := rawfmt.For[K, V]()
	if err != nil {
		return nil, fmt.Errorf("wire: %v; the wire carries raw native-endian arrays only", err)
	}
	return &Codec[K, V]{raw: c}, nil
}

// Hello returns the handshake this codec's end would send.
func (c *Codec[K, V]) Hello() Hello {
	return Hello{Version: Version, Contract: c.raw}
}

// CheckHello validates a peer's handshake against this codec: the
// version must be known and the platform contract must match exactly.
func (c *Codec[K, V]) CheckHello(h Hello) error {
	if h.Version != Version {
		return fmt.Errorf("%w: peer speaks version %d, this build speaks %d",
			ErrVersionUnknown, h.Version, Version)
	}
	if err := h.Check(c.raw); err != nil {
		return fmt.Errorf("%w: peer %v", ErrPlatform, err)
	}
	return nil
}

// EncodeHello renders a Hello payload.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 0, helloSize)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Version))
	b = append(b, endianByte(h.Endian), byte(h.KeyKind), byte(h.KeyWidth), byte(h.ValKind), byte(h.ValWidth))
	return b
}

// DecodeHello parses a Hello payload. A wrong magic or a short payload
// is ErrMalformed; version and platform checks are the caller's
// (CheckHello), so a well-formed future-version hello still decodes and
// can be refused by number.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) != helloSize {
		return Hello{}, fmt.Errorf("%w: hello payload is %d bytes, want %d", ErrMalformed, len(payload), helloSize)
	}
	if string(payload[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("%w: bad hello magic %q", ErrMalformed, payload[:len(Magic)])
	}
	p := payload[len(Magic):]
	h := Hello{
		Version: int(binary.LittleEndian.Uint32(p[0:4])),
		Contract: rawfmt.Contract{
			KeyKind:  reflect.Kind(p[5]),
			KeyWidth: int(p[6]),
			ValKind:  reflect.Kind(p[7]),
			ValWidth: int(p[8]),
		},
	}
	switch p[4] {
	case 1:
		h.Endian = "little"
	case 2:
		h.Endian = "big"
	default:
		return Hello{}, fmt.Errorf("%w: unknown endian tag %d", ErrMalformed, p[4])
	}
	return h, nil
}

// FrameBytes renders one complete frame — header and payload — as a
// byte slice of exactly its size, with the one frame encoder every
// writer uses. The client's pipelined send path queues pre-rendered
// frames.
func FrameBytes(tag byte, payload []byte) ([]byte, error) {
	if len(payload) > blockio.MaxBlock {
		return nil, fmt.Errorf("wire: payload of %d bytes exceeds blockio.MaxBlock", len(payload))
	}
	return blockio.AppendFrame(make([]byte, 0, blockio.HeaderSize+len(payload)), tag, payload), nil
}
