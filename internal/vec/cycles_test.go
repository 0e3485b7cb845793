package vec

import (
	"math/rand"
	"slices"
	"testing"
)

// TestApplyCycles applies the cycle walks of random permutations (and of
// the identity and one long cycle) at an offset through Slice, Zip and a
// View over each, against the out-of-place gather out[j] = in[src[j]],
// and checks that the elements outside the window stay where they were.
func TestApplyCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var srcs [][]int
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		srcs = append(srcs, rng.Perm(n))
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		srcs = append(srcs, id)
		if n > 0 {
			srcs = append(srcs, append(id[1:n:n], 0)) // one n-cycle
		}
	}
	const off, pad = 5, 3
	for _, src := range srcs {
		n := len(src)
		c := NewCycles(src)
		want := make([]int, off+n+pad)
		for i := range want {
			want[i] = -i
		}
		for j, s := range src {
			want[off+j] = -(off + s)
		}
		fresh := func() []int {
			s := make([]int, off+n+pad)
			for i := range s {
				s[i] = -i
			}
			return s
		}
		check := func(name string, got []int, applied bool) {
			t.Helper()
			if !applied {
				t.Fatalf("n=%d %s: ApplyCycles declined", n, name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s:\n got %v\nwant %v", n, name, got, want)
			}
		}
		s := fresh()
		check("Slice", s, Of(s).ApplyCycles(0, off, c))
		s = fresh()
		check("View(Slice)", s, Window[int](Of(s), 2, off+n-2+pad).ApplyCycles(0, off-2, c))
		k, v := fresh(), fresh()
		z := ZipOf(k, v)
		ok := z.ApplyCycles(0, off, c)
		check("Zip keys", k, ok)
		check("Zip vals", v, ok)
		k, v = fresh(), fresh()
		ok = Window[KV[int, int]](ZipOf(k, v), 1, off+n).ApplyCycles(0, off-1, c)
		check("View(Zip) keys", k, ok)
		check("View(Zip) vals", v, ok)
	}
}
