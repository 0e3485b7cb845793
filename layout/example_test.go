package layout_test

import (
	"fmt"

	"implicitlayout/layout"
)

// Read is the way back from any layout to sorted order, for arrays laid
// out by layout.Write or by perm's permutations alike. It reads the
// source without writing it, into another array or in place.
func ExampleRead() {
	keys := []int{1, 2, 3, 4, 5, 6, 7}
	vals := []string{"a", "b", "c", "d", "e", "f", "g"}
	layout.Write(layout.BST, keys, vals, layout.DefaultB)
	fmt.Println(keys, vals)

	sorted := make([]int, len(keys))
	layout.Read[int, string](layout.BST, sorted, nil, keys, nil, layout.DefaultB)
	fmt.Println(sorted, keys)

	layout.Read(layout.BST, keys, vals, keys, vals, layout.DefaultB)
	fmt.Println(keys, vals)
	// Output:
	// [4 2 6 1 3 5 7] [d b f a c e g]
	// [1 2 3 4 5 6 7] [4 2 6 1 3 5 7]
	// [1 2 3 4 5 6 7] [a b c d e f g]
}
