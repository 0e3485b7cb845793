package rawfmt

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

type id uint64

func TestKind(t *testing.T) {
	accepted := []struct {
		t    reflect.Type
		kind reflect.Kind
	}{
		{reflect.TypeFor[int](), reflect.Int},
		{reflect.TypeFor[int8](), reflect.Int8},
		{reflect.TypeFor[int16](), reflect.Int16},
		{reflect.TypeFor[int32](), reflect.Int32},
		{reflect.TypeFor[int64](), reflect.Int64},
		{reflect.TypeFor[uint](), reflect.Uint},
		{reflect.TypeFor[uint8](), reflect.Uint8},
		{reflect.TypeFor[uint16](), reflect.Uint16},
		{reflect.TypeFor[uint32](), reflect.Uint32},
		{reflect.TypeFor[uint64](), reflect.Uint64},
		{reflect.TypeFor[uintptr](), reflect.Uintptr},
		{reflect.TypeFor[float32](), reflect.Float32},
		{reflect.TypeFor[float64](), reflect.Float64},
		{reflect.TypeFor[id](), reflect.Uint64},
	}
	for _, c := range accepted {
		if k, ok := Kind(c.t); !ok || k != c.kind {
			t.Errorf("Kind(%v) = %v, %v; want %v, true", c.t, k, ok, c.kind)
		}
	}
	rejected := []reflect.Type{
		reflect.TypeFor[string](),
		reflect.TypeFor[bool](),
		reflect.TypeFor[complex128](),
		reflect.TypeFor[struct{ A uint64 }](),
		reflect.TypeFor[[2]uint64](),
		reflect.TypeFor[*uint64](),
	}
	for _, rt := range rejected {
		if k, ok := Kind(rt); ok {
			t.Errorf("Kind(%v) = %v, true; want it rejected", rt, k)
		}
	}
}

func TestNew(t *testing.T) {
	c, err := For[uint32, float64]()
	if err != nil {
		t.Fatal(err)
	}
	want := Contract{Endian: HostEndian(), KeyKind: reflect.Uint32, KeyWidth: 4, ValKind: reflect.Float64, ValWidth: 8}
	if c != want {
		t.Fatalf("For[uint32, float64]() = %+v, want %+v", c, want)
	}

	type wrapped struct {
		val  int16
		dead bool
	}
	c, err = New(reflect.TypeFor[id](), reflect.TypeFor[int16](), reflect.TypeFor[wrapped]())
	if err != nil {
		t.Fatal(err)
	}
	if c.KeyKind != reflect.Uint64 || c.ValKind != reflect.Int16 || c.ValWidth != 4 {
		t.Fatalf("wrapped values: %+v, want uint64 keys and int16 values 4 bytes wide", c)
	}

	c, err = New(reflect.TypeFor[int8](), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.ValKind != 0 || c.ValWidth != 0 || c.KeyWidth != 1 {
		t.Fatalf("key set: %+v, want no value fields", c)
	}

	for _, tc := range []struct {
		f    func() (Contract, error)
		name string
	}{
		{For[string, uint64], "key type string"},
		{For[uint64, [2]int], "value type [2]int"},
		{For[uint64, bool], "value type bool"},
	} {
		if _, err := tc.f(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("constructor error %v does not name %q", err, tc.name)
		}
	}
}

func TestCheck(t *testing.T) {
	want, err := For[uint64, int64]()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Check(want); err != nil {
		t.Fatalf("a contract refused itself: %v", err)
	}
	other := "big"
	if want.Endian == "big" {
		other = "little"
	}
	cases := []struct {
		field  string
		mutate func(c *Contract)
	}{
		{"byte order", func(c *Contract) { c.Endian = other }},
		{"key kind", func(c *Contract) { c.KeyKind = reflect.Float64 }},
		{"key width", func(c *Contract) { c.KeyWidth = 4 }},
		{"value kind", func(c *Contract) { c.ValKind = reflect.Uint64 }},
		{"value width", func(c *Contract) { c.ValWidth = 2 }},
	}
	for _, tc := range cases {
		got := want
		tc.mutate(&got)
		err := got.Check(want)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s differs: Check = %v, want an error naming it", tc.field, err)
		}
	}
}

func TestAppendCut(t *testing.T) {
	b := Append(nil, uint16(0xbeef))
	b = Append(b, math.Pi)
	b = Append(b, int8(-3))
	if len(b) != 2+8+1 {
		t.Fatalf("appended %d bytes, want 11", len(b))
	}
	u, rest, ok := Cut[uint16](b)
	if !ok || u != 0xbeef {
		t.Fatalf("Cut[uint16] = %#x, %v", u, ok)
	}
	f, rest, ok := Cut[float64](rest[:len(rest):len(rest)])
	if !ok || f != math.Pi {
		t.Fatalf("Cut[float64] = %v, %v", f, ok)
	}
	i, rest, ok := Cut[int8](rest)
	if !ok || i != -3 || len(rest) != 0 {
		t.Fatalf("Cut[int8] = %v, %v, %d bytes left", i, ok, len(rest))
	}
	if _, _, ok := Cut[uint64](b[:7]); ok {
		t.Fatal("Cut[uint64] accepted 7 bytes")
	}

	buf := make([]byte, 0, 16)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		buf = Append(buf[:0], uint64(7))
		v, _, _ := Cut[uint64](buf)
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("Append and Cut: %v allocs, want 0", allocs)
	}
}
