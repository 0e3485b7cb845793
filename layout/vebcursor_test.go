package layout

import (
	"math/rand"
	"testing"
)

// checkVEBNode fails unless the key at the vEB position pos has the
// in-order rank of node (depth, rank): vr is the vEB rank table and br
// the BST one, whose breadth-first index 2^depth-1+rank is the node.
func checkVEBNode(t testing.TB, n int, vr, br []int, depth, rank, pos int) {
	if want := br[1<<uint(depth)-1+rank]; vr[pos] != want {
		t.Helper()
		t.Fatalf("n=%d node(d=%d,r=%d): vEB pos %d holds rank %d, want %d",
			n, depth, rank, pos, vr[pos], want)
	}
}

// TestVEBCursorMatchesRanks checks the cursor against the out-of-place
// rank oracle rather than against VEBNav.Pos: every node of every tree
// with n <= 4096 nodes, and random root-to-leaf paths on large trees
// whose last level is full, half full or a single node.
func TestVEBCursorMatchesRanks(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		vr, br := Ranks(VEB, n, 0), Ranks(BST, n, 0)
		visited := 0
		var walk func(cur VEBCursor, depth, rank int)
		walk = func(cur VEBCursor, depth, rank int) {
			checkVEBNode(t, n, vr, br, depth, rank, cur.Pos())
			visited++
			for dir := 0; dir <= 1; dir++ {
				if child := cur; child.Descend(dir) {
					walk(child, depth+1, 2*rank+dir)
				}
			}
		}
		walk(NewVEBNav(n).Cursor(), 0, 0)
		if visited != n {
			t.Fatalf("n=%d: cursor walk visited %d nodes", n, visited)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{655000, 3 << 19, 1<<20 - 1, 1 << 20} {
		vr, br := Ranks(VEB, n, 0), Ranks(BST, n, 0)
		nav := NewVEBNav(n)
		for path := 0; path < 2000; path++ {
			cur := nav.Cursor()
			depth, rank := 0, 0
			for {
				checkVEBNode(t, n, vr, br, depth, rank, cur.Pos())
				dir := rng.Intn(2)
				if !cur.Descend(dir) {
					break
				}
				depth, rank = depth+1, 2*rank+dir
			}
		}
	}
}

// FuzzVEBNav walks one root-to-leaf path, chosen by the bits of dirs,
// through a vEB layout of up to 2^40 nodes. At every node the cursor's
// position must equal VEBNav.Pos, Descend must agree with Exists in both
// directions, and for n <= 2^14 the position must hold the node's rank.
func FuzzVEBNav(f *testing.F) {
	for _, n := range []uint64{1, 2, 7, 8, 26, 1000, 3 << 19, 1<<40 - 1, 1 << 40} {
		for _, b := range []byte{0x00, 0xff, 0x5a, 0xa5} {
			f.Add(n-1, []byte{b, b, b, b, b})
		}
	}
	f.Fuzz(func(t *testing.T, nRaw uint64, dirs []byte) {
		n := int(nRaw%(1<<40)) + 1
		nav := NewVEBNav(n)
		var vr, br []int
		if n <= 1<<14 {
			vr, br = Ranks(VEB, n, 0), Ranks(BST, n, 0)
		}
		var cur VEBCursor
		nav.InitCursor(&cur)
		for depth, rank := 0, 0; ; depth++ {
			pos := cur.Pos()
			if want := nav.Pos(depth, rank); pos != want {
				t.Fatalf("n=%d node(d=%d,r=%d): cursor pos %d, Pos %d", n, depth, rank, pos, want)
			}
			if vr != nil {
				checkVEBNode(t, n, vr, br, depth, rank, pos)
			}
			dir := 0
			if depth/8 < len(dirs) {
				dir = int(dirs[depth/8]>>uint(depth%8)) & 1
			}
			other := cur
			if got, want := other.Descend(1-dir), nav.Exists(depth+1, 2*rank+1-dir); got != want {
				t.Fatalf("n=%d node(d=%d,r=%d): Descend(%d) = %v, Exists %v", n, depth, rank, 1-dir, got, want)
			}
			exists := nav.Exists(depth+1, 2*rank+dir)
			if cur.Descend(dir) != exists {
				t.Fatalf("n=%d node(d=%d,r=%d): Descend(%d) = %v, Exists %v", n, depth, rank, dir, !exists, exists)
			}
			if !exists {
				return
			}
			rank = 2*rank + dir
		}
	})
}
