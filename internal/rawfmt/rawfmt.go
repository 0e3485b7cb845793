// Package rawfmt is the one definition of what a raw memory dump needs.
// The paper's layouts are pointer-free, so a permuted key or value
// array can leave the process exactly as it sits in memory — as a raw
// segment array, a raw WAL record or a wire message — and be read back
// without decoding. That only works when writer and reader agree on the
// byte order and on each element's kind and width: the platform
// contract. Every raw format records a Contract next to its data and
// refuses data whose Contract differs from its own (Check), and this
// package alone decides which types dump raw at all (Kind) and what the
// host's byte order is (HostEndian).
//
// How a format serializes the Contract — gob fields in a segment header,
// bytes in a WAL header frame or a wire Hello — stays beside that
// format's encoder. Bulk arrays are cast with mmapio.Bytes and
// mmapio.View; Append and Cut are the allocation-free coder for single
// values.
//
// Errors are phrases for the caller to prefix with its own context.
package rawfmt

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"implicitlayout/internal/mmapio"
)

// Kind reports whether values of t can be dumped raw and returns their
// kind: the integer, uintptr and float kinds can; strings, bools,
// complex numbers, structs, arrays, pointers and everything else cannot.
// A named type qualifies through its underlying kind.
func Kind(t reflect.Type) (reflect.Kind, bool) {
	switch k := t.Kind(); k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64:
		return k, true
	}
	return 0, false
}

// HostEndian returns this machine's byte order: "little" or "big".
func HostEndian() string {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 1)
	if buf[0] == 1 {
		return "little"
	}
	return "big"
}

// Describe names t for a contract error: its name and width in bytes,
// or that it cannot be dumped raw.
func Describe(t reflect.Type) string {
	if _, ok := Kind(t); !ok {
		return t.String() + " (not fixed-width)"
	}
	return fmt.Sprintf("%v (%d bytes)", t, t.Size())
}

// Contract is the platform contract of raw key and value arrays: the
// byte order they were written in and each element's kind and width in
// bytes. A key set has no values, so its ValKind and ValWidth are zero.
type Contract struct {
	Endian   string // "little" or "big"
	KeyKind  reflect.Kind
	KeyWidth int
	ValKind  reflect.Kind
	ValWidth int
}

// New returns this host's contract for raw arrays of key keys and val
// values. elem is the value array's element type: val itself, or a
// fixed-size wrapper of it (a run segment's value plus tombstone flag),
// whose size is the ValWidth while ValKind stays val's. A nil val
// states a key set. The error names the first type that cannot be
// dumped raw.
func New(key, val, elem reflect.Type) (Contract, error) {
	c := Contract{Endian: HostEndian(), KeyWidth: int(key.Size())}
	var ok bool
	if c.KeyKind, ok = Kind(key); !ok {
		return Contract{}, fmt.Errorf("key type %v is not fixed-width", key)
	}
	if val == nil {
		return c, nil
	}
	if c.ValKind, ok = Kind(val); !ok {
		return Contract{}, fmt.Errorf("value type %v is not fixed-width", val)
	}
	c.ValWidth = int(elem.Size())
	return c, nil
}

// For returns this host's contract for raw arrays of K keys and V
// values.
func For[K, V any]() (Contract, error) {
	v := reflect.TypeFor[V]()
	return New(reflect.TypeFor[K](), v, v)
}

// Check refuses data written under c by a reader that needs want,
// naming the first field that differs: byte order, key kind, key width,
// value kind or value width.
func (c Contract) Check(want Contract) error {
	switch {
	case c.Endian != want.Endian:
		return fmt.Errorf("byte order %s-endian, want %s-endian", c.Endian, want.Endian)
	case c.KeyKind != want.KeyKind:
		return fmt.Errorf("key kind %v, want %v", c.KeyKind, want.KeyKind)
	case c.KeyWidth != want.KeyWidth:
		return fmt.Errorf("key width %d bytes, want %d bytes", c.KeyWidth, want.KeyWidth)
	case c.ValKind != want.ValKind:
		return fmt.Errorf("value kind %v, want %v", c.ValKind, want.ValKind)
	case c.ValWidth != want.ValWidth:
		return fmt.Errorf("value width %d bytes, want %d bytes", c.ValWidth, want.ValWidth)
	}
	return nil
}

// Append appends v's raw bytes, in native byte order, to dst.
func Append[T any](dst []byte, v T) []byte {
	a := [1]T{v}
	return append(dst, mmapio.Bytes(a[:])...)
}

// Cut decodes a T from the raw bytes at the front of b and returns it
// with the bytes after it. ok is false when b is shorter than a T. The
// bytes are copied out, so b need not be aligned for T.
func Cut[T any](b []byte) (v T, rest []byte, ok bool) {
	var a [1]T
	raw := mmapio.Bytes(a[:])
	if len(b) < len(raw) {
		return v, nil, false
	}
	copy(raw, b)
	return a[0], b[len(raw):], true
}
