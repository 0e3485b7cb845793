package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The benchmark keeps its own large inputs — key universes, op streams,
// the model, sorted copies — in anonymous mappings outside the Go heap.
// The program under test then runs on a heap it alone fills, so its GC
// pacing, allocation counts and peak RSS are not inflated, or made
// noisier, by tens of megabytes of the benchmark's live data.

// plain is the element types kept off the heap: no pointers, so the
// garbage collector never needs to see them.
type plain interface{ ~uint64 | ~uint32 | ~bool }

// offHeap returns n zeroed Ts in a fresh anonymous mapping. Like make, it
// panics when memory runs out.
func offHeap[T plain](n int) []T {
	if n == 0 {
		return nil
	}
	size := n * int(unsafe.Sizeof(*new(T)))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping %d bytes: %v", size, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// freeOffHeap unmaps a slice offHeap returned (nil is a no-op); the
// slice must not be used afterwards.
func freeOffHeap[T plain](s []T) {
	if len(s) == 0 {
		return
	}
	size := len(s) * int(unsafe.Sizeof(s[0]))
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), size)); err != nil {
		panic(fmt.Sprintf("perfbench: unmapping %d bytes: %v", size, err))
	}
}
