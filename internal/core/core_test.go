package core

import (
	"math/rand"
	"reflect"
	"testing"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/par"
	"implicitlayout/internal/vec"
	"implicitlayout/layout"
)

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// want returns the oracle layout of seq(n): since keys equal their sorted
// ranks, the expected array is exactly the rank table.
func want(k layout.Kind, n, b int) []int {
	return layout.Ranks(k, n, b)
}

type algo struct {
	name string
	kind layout.Kind
	b    int
	run  func(o Options, v vec.Slice[int])
}

func allAlgos() []algo {
	var as []algo
	as = append(as,
		algo{"involution-bst", layout.BST, 0, func(o Options, v vec.Slice[int]) { InvolutionBST[int](o, v) }},
		algo{"cycle-bst", layout.BST, 0, func(o Options, v vec.Slice[int]) { CycleBST[int](o, v) }},
		algo{"involution-veb", layout.VEB, 0, func(o Options, v vec.Slice[int]) { InvolutionVEB[int](o, v) }},
		algo{"cycle-veb", layout.VEB, 0, func(o Options, v vec.Slice[int]) { CycleVEB[int](o, v) }},
		algo{"cycle-veb-transposed", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			o.TransposedGather = true
			CycleVEB[int](o, v)
		}},
		algo{"cycle-veb-batched", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			o.GatherBatch = 8
			CycleVEB[int](o, v)
		}},
		// The slice backends finish subtrees of up to 2^11-1 keys by a
		// cycle walk and separate the partial level by block rotations;
		// on noLeaf the paper's recursion runs to the bottom and the
		// Chapter 5 pre-pass is the J un-shuffle, as on the cost models.
		algo{"cycle-bst-declined", layout.BST, 0, func(o Options, v vec.Slice[int]) {
			CycleBST[int](o, noLeaf[int]{v})
		}},
		algo{"involution-veb-declined", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			InvolutionVEB[int](o, noLeaf[int]{v})
		}},
		algo{"cycle-veb-recursion", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			CycleVEB[int](o, noLeaf[int]{v})
		}},
		algo{"cycle-veb-transposed-recursion", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			o.TransposedGather = true
			CycleVEB[int](o, noLeaf[int]{v})
		}},
		algo{"cycle-veb-batched-recursion", layout.VEB, 0, func(o Options, v vec.Slice[int]) {
			o.GatherBatch = 8
			CycleVEB[int](o, noLeaf[int]{v})
		}},
	)
	for _, b := range []int{1, 2, 3, 4, 7, 8} {
		b := b
		as = append(as,
			algo{"involution-btree/B=" + itoa(b), layout.BTree, b, func(o Options, v vec.Slice[int]) {
				o.B = b
				InvolutionBTree[int](o, v)
			}},
			algo{"cycle-btree/B=" + itoa(b), layout.BTree, b, func(o Options, v vec.Slice[int]) {
				o.B = b
				CycleBTree[int](o, v)
			}},
			algo{"cycle-btree-declined/B=" + itoa(b), layout.BTree, b, func(o Options, v vec.Slice[int]) {
				o.B = b
				CycleBTree[int](o, noLeaf[int]{v})
			}},
		)
	}
	for _, b := range []int{1, 2, 4} {
		b := b
		as = append(as,
			algo{"involution-hier/B=" + itoa(b), layout.Hier, b, func(o Options, v vec.Slice[int]) {
				o.B = b
				PermuteHier[int](o, v, Involution)
			}},
			algo{"cycle-hier/B=" + itoa(b), layout.Hier, b, func(o Options, v vec.Slice[int]) {
				o.B = b
				PermuteHier[int](o, v, CycleLeader)
			}},
		)
	}
	return as
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestAllAlgorithmsExhaustiveSmall checks every algorithm against the
// layout oracle for every size up to 260, serial and parallel — this
// covers all perfect/non-perfect shape combinations of small trees.
func TestAllAlgorithmsExhaustiveSmall(t *testing.T) {
	runners := []par.Runner{par.New(1), {Lo: 0, Hi: 3, MinFor: 1}}
	for _, a := range allAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			for n := 0; n <= 260; n++ {
				w := want(a.kind, n, a.b)
				for _, rn := range runners {
					got := seq(n)
					a.run(Options{Runner: rn}, vec.Of(got))
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("n=%d P=%d:\n got %v\nwant %v", n, rn.P(), got, w)
					}
				}
			}
		})
	}
}

// TestAllAlgorithmsLargerSizes spot-checks larger sizes including exact
// powers, perfect sizes, and random lengths.
func TestAllAlgorithmsLargerSizes(t *testing.T) {
	sizes := []int{511, 512, 513, 1023, 1024, 4095, 4096, 8191, 10000, 16383, 16384, 32767, 40000}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		sizes = append(sizes, rng.Intn(1<<16)+1)
	}
	rn := par.Runner{Lo: 0, Hi: 4, MinFor: 64}
	for _, a := range allAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range sizes {
				w := want(a.kind, n, a.b)
				got := seq(n)
				a.run(Options{Runner: rn}, vec.Of(got))
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("n=%d: mismatch (first diff at %d)", n, firstDiff(got, w))
				}
			}
		})
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestPermuteDispatch exercises the Permute entry point for each
// kind/algorithm pair.
func TestPermuteDispatch(t *testing.T) {
	n := 1000
	for _, k := range layout.Kinds() {
		for _, a := range Algorithms() {
			got := seq(n)
			Permute[int](Options{Runner: par.New(2), B: 4}, vec.Of(got), k, a)
			bb := 0
			if k == layout.BTree || k == layout.Hier {
				bb = 4
			}
			if !reflect.DeepEqual(got, want(k, n, bb)) {
				t.Fatalf("Permute(%v, %v) wrong", k, a)
			}
		}
	}
	got := seq(n)
	Permute[int](Options{Runner: par.New(2)}, vec.Of(got), layout.Sorted, Involution)
	if !reflect.DeepEqual(got, seq(n)) {
		t.Fatal("Permute(Sorted) must be the identity")
	}
}

// TestSoftwareReverserMatchesHardware: the BST involution algorithm
// produces the same layout under both T_REV2 cost models.
func TestSoftwareReverserMatchesHardware(t *testing.T) {
	for _, n := range []int{127, 128, 1000, 4095} {
		a, b := seq(n), seq(n)
		InvolutionBST[int](Options{Rev: bits.Software{}}, vec.Of(a))
		InvolutionBST[int](Options{Rev: bits.Hardware{}}, vec.Of(b))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: software and hardware reversers disagree", n)
		}
	}
}

// TestResultIndependentOfP: the permutation is deterministic and identical
// for any worker count (Definition 1 requires correctness for all P >= 1).
func TestResultIndependentOfP(t *testing.T) {
	n := 12345
	for _, a := range allAlgos() {
		base := seq(n)
		a.run(Options{Runner: par.New(1)}, vec.Of(base))
		for _, p := range []int{2, 3, 5, 8} {
			got := seq(n)
			a.run(Options{Runner: par.Runner{Lo: 0, Hi: p, MinFor: 16}}, vec.Of(got))
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: result differs between P=1 and P=%d", a.name, p)
			}
		}
	}
}

// TestGatherPartialLevel checks the Chapter 5 pre-pass directly: fulls to
// the front, partial level to the back, both in order, on the slice
// backend (rotation separation) and on one that declines (the J path).
func TestGatherPartialLevel(t *testing.T) {
	rn := par.Runner{Lo: 0, Hi: 2, MinFor: 1}
	backends := []struct {
		name string
		run  func(a []int, n, b int) (full, w int)
	}{
		{"slice", func(a []int, n, b int) (int, int) {
			return gatherPartialLevel[int](rn, vec.Of(a), 0, n, b)
		}},
		{"declined", func(a []int, n, b int) (int, int) {
			return gatherPartialLevel[int](rn, noLeaf[int]{vec.Of(a)}, 0, n, b)
		}},
	}
	for _, be := range backends {
		for _, b := range []int{1, 2, 3, 5} {
			for n := 1; n <= 200; n++ {
				a := seq(n)
				full, w := be.run(a, n, b)
				if full+w != n {
					t.Fatalf("%s b=%d n=%d: full=%d w=%d don't sum", be.name, b, n, full, w)
				}
				// Expected: ranks of full-level keys ascending, then leaves.
				ranks := layout.Ranks(layout.BTree, n, b)
				isLeafKey := make([]bool, n)
				for pos := full; pos < n; pos++ {
					// positions full.. in the layout are the partial level
					isLeafKey[ranks[pos]] = true
				}
				var wantArr []int
				for i := 0; i < n; i++ {
					if !isLeafKey[i] {
						wantArr = append(wantArr, i)
					}
				}
				for i := 0; i < n; i++ {
					if isLeafKey[i] {
						wantArr = append(wantArr, i)
					}
				}
				if !reflect.DeepEqual(a, wantArr) {
					t.Fatalf("%s b=%d n=%d:\n got %v\nwant %v", be.name, b, n, a, wantArr)
				}
			}
		}
	}
}
