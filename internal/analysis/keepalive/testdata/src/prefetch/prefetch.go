// Package prefetch models the Khuong–Morin warm-up idiom: an in-loop
// conditional load accumulated into a sink that must stay observable.
package prefetch

import "runtime"

// good has the shape of the warm sink in search's btreeBatchRing:
// loads of lines the search reads later accumulate into a running
// maximum, pinned immediately before every return after the warming
// loop begins.
func good(a []uint64, key uint64) int {
	if len(a) == 0 {
		return -1 // guard clause before the loop: nothing loaded yet
	}
	var warm uint64
	i := 0
	for i < len(a) {
		if j := 8*i + 7; j < len(a) {
			if warm < a[j] {
				warm = a[j]
			}
		}
		if a[i] == key {
			runtime.KeepAlive(warm)
			return i
		}
		i++
	}
	runtime.KeepAlive(warm)
	return -1
}

// neverPinned has no KeepAlive at all: the compiler may prove warm dead
// and delete every warming load.
func neverPinned(a []uint64) int {
	var warm uint64 // want `prefetch warm-up sink warm is never pinned`
	for i := range a {
		if warm < a[i] {
			warm = a[i]
		}
	}
	return len(a)
}

// halfPinned pins one exit and forgets the other.
func halfPinned(a []uint64, key uint64) bool {
	var warm uint64
	for i := range a {
		if warm < a[i] {
			warm = a[i]
		}
		if a[i] == key {
			runtime.KeepAlive(warm)
			return true
		}
	}
	return false // want `return without pinning warm-up sink warm`
}

// plainMax is a real max-reduction, not a warm-up: the accumulated
// value is used, so the compiler cannot delete the loads. The analyzer
// still sees the warm-up shape; the justified waiver records why no pin
// is needed.
func plainMax(a []uint64) uint64 {
	//lint:allow keepalive m is a real max-reduction whose value is returned; the loads are live without a pin
	var m uint64
	for i := range a {
		if m < a[i] {
			m = a[i]
		}
	}
	return m
}
