package perm_test

import (
	"fmt"

	"implicitlayout/layout"
	"implicitlayout/perm"
)

// Permuting a small sorted array into each layout shows the
// transformations the paper's Figures 1.1-1.3 illustrate.
func Example() {
	sorted := func() []uint64 {
		return []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	}

	bst := sorted()
	perm.Permute(bst, layout.BST, perm.Involution)
	fmt.Println("bst: ", bst)

	veb := sorted()
	perm.Permute(veb, layout.VEB, perm.CycleLeader)
	fmt.Println("veb: ", veb)

	// Output:
	// bst:  [8 4 12 2 6 10 14 1 3 5 7 9 11 13 15]
	// veb:  [8 4 12 2 1 3 6 5 7 10 9 11 14 13 15]
}
