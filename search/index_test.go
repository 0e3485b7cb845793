package search

import (
	"math/rand"
	"testing"

	"implicitlayout/layout"
)

// TestNewIndexDefaultB: a B-tree index built with b < 1 defaults to
// layout.DefaultB instead of panicking, and queries a layout permuted with
// the same default correctly.
func TestNewIndexDefaultB(t *testing.T) {
	const n = 1000
	sorted := oddKeys(n)
	arr := layout.Build(layout.BTree, sorted, layout.DefaultB)
	for _, b := range []int{0, -1} {
		ix := NewIndex(arr, layout.BTree, b)
		if ix.B() != layout.DefaultB {
			t.Fatalf("NewIndex(b=%d).B() = %d, want %d", b, ix.B(), layout.DefaultB)
		}
		for i := 0; i < n; i++ {
			x := uint64(2*i + 1)
			if pos := ix.Find(x); pos < 0 || ix.At(pos) != x {
				t.Fatalf("b=%d: Find(%d) = %d", b, x, pos)
			}
			if ix.Find(x-1) != -1 {
				t.Fatalf("b=%d: found absent %d", b, x-1)
			}
		}
	}
	// Non-B-tree layouts keep b untouched (0 stays 0).
	if ix := NewIndex(sorted, layout.Sorted, 0); ix.B() != 0 {
		t.Fatalf("Sorted index B() = %d, want 0", ix.B())
	}
}

// TestFindBatchParallelMatchesSerial: for every layout, the parallel
// FindBatch path (p > 1, len(queries) >= 2p) returns exactly the serial
// hit count. Run under -race this also exercises the worker partitioning
// for data races.
func TestFindBatchParallelMatchesSerial(t *testing.T) {
	const (
		n = 1 << 13
		b = 8
	)
	sorted := oddKeys(n)
	rng := rand.New(rand.NewSource(23))
	queries := make([]uint64, 6*n+5) // odd length so chunks are ragged
	for i := range queries {
		queries[i] = uint64(rng.Intn(2*n + 2))
	}
	kinds := append([]layout.Kind{layout.Sorted}, layout.Kinds()...)
	for _, kind := range kinds {
		ix := NewIndex(layout.Build(kind, sorted, b), kind, b)
		serial := ix.FindBatch(queries, 1)
		for _, p := range []int{2, 3, 8, 16} {
			if len(queries) < 2*p {
				t.Fatalf("p=%d: batch too small to force the parallel path", p)
			}
			if got := ix.FindBatch(queries, p); got != serial {
				t.Fatalf("%v p=%d: FindBatch = %d, serial = %d", kind, p, got, serial)
			}
		}
	}
}

// TestNewIndexUnknownKindPanics: a Kind that names no layout is refused
// when the index is built, as Find refuses it, so Predecessor, NewCursor
// and Seek never see it.
func TestNewIndexUnknownKindPanics(t *testing.T) {
	arr := oddKeys(100)
	for _, k := range []layout.Kind{layout.Kind(-1), layout.Hier + 1, layout.Kind(99)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%v) did not panic", k)
				}
			}()
			ix := NewIndex(arr, k, 8)
			t.Errorf("NewIndex(%v) returned an index: Predecessor(50) = %d", k, ix.Predecessor(50))
			c := NewCursor(ix)
			c.Seek(50)
			t.Errorf("NewIndex(%v): cursor walked it, Seek(50) then Next = %d", k, c.Next())
		}()
	}
	for _, k := range allKindsWithSorted() {
		NewIndex(layout.Build(k, arr, 8), k, 8) // every real layout is accepted
	}
}
