package shuffle

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
)

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func runners() []par.Runner {
	return []par.Runner{
		par.New(1),
		{Lo: 0, Hi: 2, MinFor: 1},
		{Lo: 0, Hi: 4, MinFor: 1},
		{Lo: 0, Hi: 3, MinFor: 8},
	}
}

// refShuffle computes the k-way shuffle out of place: deck-major input to
// interleaved output.
func refShuffle(in []int, k int) []int {
	n := len(in)
	m := n / k
	out := make([]int, n)
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			out[j*k+c] = in[c*m+j]
		}
	}
	return out
}

func refUnshuffle(in []int, k int) []int {
	n := len(in)
	m := n / k
	out := make([]int, n)
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			out[c*m+j] = in[j*k+c]
		}
	}
	return out
}

func TestReverse(t *testing.T) {
	for _, r := range runners() {
		for _, n := range []int{0, 1, 2, 3, 10, 101, 4096} {
			s := seq(n)
			Reverse[int](r, vec.Of(s), 0, n)
			for i := range s {
				if s[i] != n-1-i {
					t.Fatalf("P=%d n=%d: reverse wrong at %d: %v", r.P(), n, i, s[:min(n, 20)])
				}
			}
		}
	}
}

func TestReversePartialWindow(t *testing.T) {
	r := par.New(2)
	s := seq(10)
	Reverse[int](r, vec.Of(s), 3, 4) // reverse s[3:7]
	want := []int{0, 1, 2, 6, 5, 4, 3, 7, 8, 9}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %v want %v", s, want)
	}
}

func TestRotateRight(t *testing.T) {
	for _, r := range runners() {
		for _, n := range []int{1, 2, 3, 7, 64, 1000} {
			for _, s := range []int{0, 1, 2, n - 1, n, n + 3, -1} {
				a := seq(n)
				RotateRight[int](r, vec.Of(a), 0, n, s)
				sm := ((s % n) + n) % n
				for i := 0; i < n; i++ {
					if a[(i+sm)%n] != i {
						t.Fatalf("P=%d n=%d s=%d: rotate wrong: %v", r.P(), n, s, a[:min(n, 20)])
					}
				}
			}
		}
	}
}

func TestRotateLeftInvertsRotateRight(t *testing.T) {
	f := func(nRaw uint16, sRaw uint16) bool {
		n := int(nRaw)%500 + 1
		s := int(sRaw) % (2 * n)
		a := seq(n)
		r := par.New(2)
		RotateRight[int](r, vec.Of(a), 0, n, s)
		RotateLeft[int](r, vec.Of(a), 0, n, s)
		return reflect.DeepEqual(a, seq(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRotateRightUnitsStrided checks strided unit rotation: units along a
// stride, contents preserved.
func TestRotateRightUnitsStrided(t *testing.T) {
	// 12 elements, units of c=2 at stride 4: units at offsets 0, 4, 8.
	a := []int{0, 1, 100, 101, 2, 3, 102, 103, 4, 5, 104, 105}
	RotateRightUnits[int](par.New(2), vec.Of(a), 0, 4, 3, 2, 1)
	want := []int{4, 5, 100, 101, 0, 1, 102, 103, 2, 3, 104, 105}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("strided rotate:\n got %v\nwant %v", a, want)
	}
}

// TestRotateUnitsChunkedEqualsElementwise: rotating m units of c elements
// equals rotating m*c elements by s*c when units are adjacent.
func TestRotateUnitsChunkedEqualsElementwise(t *testing.T) {
	f := func(mRaw, cRaw, sRaw uint8) bool {
		m := int(mRaw)%20 + 1
		c := int(cRaw)%8 + 1
		s := int(sRaw) % m
		a := seq(m * c)
		b := seq(m * c)
		r := par.New(2)
		RotateRightUnits[int](r, vec.Of(a), 0, c, m, c, s)
		RotateRight[int](r, vec.Of(b), 0, m*c, s*c)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKShuffleAgainstReference(t *testing.T) {
	for _, r := range runners() {
		for _, tc := range []struct{ m, k int }{
			{1, 2}, {2, 2}, {5, 2}, {4, 3}, {9, 3}, {7, 4}, {3, 5}, {100, 2}, {50, 6},
		} {
			n := tc.m * tc.k
			a := seq(n)
			KShuffle[int](r, vec.Of(a), 0, n, tc.k)
			want := refShuffle(seq(n), tc.k)
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("P=%d n=%d k=%d:\n got %v\nwant %v", r.P(), n, tc.k, a, want)
			}
		}
	}
}

func TestKUnshuffleAgainstReference(t *testing.T) {
	for _, r := range runners() {
		for _, tc := range []struct{ m, k int }{
			{2, 2}, {5, 2}, {9, 3}, {7, 4}, {100, 2}, {50, 6}, {27, 3},
		} {
			n := tc.m * tc.k
			a := seq(n)
			KUnshuffle[int](r, vec.Of(a), 0, n, tc.k)
			want := refUnshuffle(seq(n), tc.k)
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("P=%d n=%d k=%d:\n got %v\nwant %v", r.P(), n, tc.k, a, want)
			}
		}
	}
}

// TestKShufflePowMatchesJPath: the digit-reversal path Ξ₁ and the modular
// inverse path Ξ₂ produce identical permutations when both apply.
func TestKShufflePowMatchesJPath(t *testing.T) {
	r := par.New(2)
	for _, tc := range []struct{ k, d int }{{2, 2}, {2, 5}, {3, 3}, {4, 3}, {5, 2}} {
		n := 1
		for i := 0; i < tc.d; i++ {
			n *= tc.k
		}
		a, b := seq(n), seq(n)
		KShufflePow[int](r, vec.Of(a), 0, n, tc.k, tc.d)
		KShuffle[int](r, vec.Of(b), 0, n, tc.k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d d=%d: pow path %v != J path %v", tc.k, tc.d, a, b)
		}
		a2, b2 := seq(n), seq(n)
		KUnshufflePow[int](r, vec.Of(a2), 0, n, tc.k, tc.d)
		KUnshuffle[int](r, vec.Of(b2), 0, n, tc.k)
		if !reflect.DeepEqual(a2, b2) {
			t.Fatalf("k=%d d=%d: unshuffle pow path %v != J path %v", tc.k, tc.d, a2, b2)
		}
	}
}

// TestKUnshuffle1GathersStrided: with simulated 1-indexing, every k-th
// element (1-indexed) gathers in order to the front.
func TestKUnshuffle1GathersStrided(t *testing.T) {
	for _, r := range runners() {
		for _, tc := range []struct{ n, k int }{
			{7, 2}, {15, 2}, {8, 3}, {26, 3}, {11, 4}, {63, 4}, {24, 5}, {124, 5},
		} {
			a := seq(tc.n)
			KUnshuffle1[int](r, vec.Of(a), 0, tc.n, tc.k)
			// fronts: elements at 1-indexed positions k, 2k, ... in order.
			cnt := (tc.n + 1) / tc.k
			for j := 1; j < cnt; j++ {
				if a[j-1] != j*tc.k-1 {
					t.Fatalf("P=%d n=%d k=%d: front[%d]=%d, want %d (array %v)",
						r.P(), tc.n, tc.k, j-1, a[j-1], j*tc.k-1, a)
				}
			}
			// deck c (1 <= c < k) holds original 1-indexed positions
			// j*k+c in order, at array slots (n+1)/k*c - 1 + j.
			m := (tc.n + 1) / tc.k
			for c := 1; c < tc.k; c++ {
				for j := 0; j < m; j++ {
					slot := m*c - 1 + j
					if slot >= tc.n {
						continue
					}
					orig := j*tc.k + c - 1
					if a[slot] != orig {
						t.Fatalf("P=%d n=%d k=%d: deck %d slot %d holds %d, want %d (array %v)",
							r.P(), tc.n, tc.k, c, slot, a[slot], orig, a)
					}
				}
			}
		}
	}
}

func TestSwapBlocks(t *testing.T) {
	for _, r := range runners() {
		a := seq(1000)
		SwapBlocks[int](r, vec.Of(a), 0, 500, 500)
		for i := 0; i < 500; i++ {
			if a[i] != 500+i || a[500+i] != i {
				t.Fatalf("P=%d: swap halves wrong at %d", r.P(), i)
			}
		}
	}
}

// TestWindowedOps: operations respect the window offset lo.
func TestWindowedOps(t *testing.T) {
	r := par.New(2)
	a := seq(20)
	KShuffle[int](r, vec.Of(a), 5, 10, 2)
	want := append(seq(5), refShuffle([]int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 2)...)
	want = append(want, 15, 16, 17, 18, 19)
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("windowed shuffle:\n got %v\nwant %v", a, want)
	}
}

// TestRandomizedRotations: fuzz rotations against a reference.
func TestRandomizedRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := par.Runner{Lo: 0, Hi: 4, MinFor: 1}
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(30) + 1
		c := rng.Intn(5) + 1
		stride := c + rng.Intn(4)*c // stride multiple of c keeps units disjoint
		s := rng.Intn(2 * m)
		total := (m-1)*stride + c
		base := rng.Intn(5)
		a := seq(base + total + 3)
		want := append([]int(nil), a...)
		// reference: collect units, rotate, scatter.
		units := make([][]int, m)
		for t := 0; t < m; t++ {
			units[t] = append([]int(nil), a[base+t*stride:base+t*stride+c]...)
		}
		for t := 0; t < m; t++ {
			src := ((t-s)%m + m) % m
			copy(want[base+t*stride:], units[src])
		}
		RotateRightUnits[int](r, vec.Of(a), base, stride, m, c, s)
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("trial %d m=%d c=%d stride=%d s=%d:\n got %v\nwant %v", trial, m, c, stride, s, a, want)
		}
	}
}
