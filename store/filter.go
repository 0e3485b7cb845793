package store

import (
	"cmp"
	"math"
	"reflect"
)

// This file is the store side of the per-run key filters: a
// deterministic hash over any ordered key type, the bloom construction
// the DB's run builds and the streaming segment writer share, and the
// fences+bloom decision rule DB.Get and DB.GetBatch consult before
// descending into a run. The filter bits themselves live in
// internal/filter; the v2.1 segment codec persists them (see
// segment.go), so a reopened run skips the same lookups it skipped
// before the restart.

// keyHash maps a key to the 64-bit hash the run filters are built over.
// It must be deterministic across processes and platforms — the hash
// feeds a bloom filter that is serialized into segment files — so it
// avoids maphash's per-process seeds: primitives hash their value bits
// through a fixed avalanche mix, strings through FNV-1a. Named types
// whose underlying kind is a primitive take the reflection fallback,
// which hashes the same way per kind; cmp.Ordered admits no other
// kinds, so every key type the store can hold is hashable.
//
// Negative zero is normalized to positive zero before hashing so the
// two float encodings of an equal key cannot split across the filter.
// (NaN keys hash deterministically but are already undefined for the
// query kernels — see Build.)
func keyHash[K cmp.Ordered](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix64(uint64(v))
	case int8:
		return mix64(uint64(v))
	case int16:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case uint:
		return mix64(uint64(v))
	case uint8:
		return mix64(uint64(v))
	case uint16:
		return mix64(uint64(v))
	case uint32:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case uintptr:
		return mix64(uint64(v))
	case float32:
		if v == 0 {
			v = 0 // fold -0 into +0: equal keys, different bits
		}
		return mix64(uint64(math.Float32bits(v)))
	case float64:
		if v == 0 {
			v = 0
		}
		return mix64(math.Float64bits(v))
	case string:
		return hashString(v)
	}
	// Named types: same per-kind rule via reflection. A given key type
	// always takes one path, so writer and reader hash identically.
	rv := reflect.ValueOf(k)
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return mix64(uint64(rv.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mix64(rv.Uint())
	case reflect.Float32, reflect.Float64:
		f := rv.Float()
		if f == 0 {
			f = 0
		}
		return mix64(math.Float64bits(f))
	case reflect.String:
		return hashString(rv.String())
	}
	panic("store: unhashable ordered key kind " + rv.Kind().String())
}

// mix64 is the 64-bit avalanche finalizer (Murmur3's fmix64): every
// input bit affects every output bit, turning sequential keys into
// uniformly spread filter probes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// hashString is FNV-1a 64 with a final avalanche — simple, allocation-
// free, and stable across builds.
func hashString(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return mix64(h)
}

// Filter-check outcomes for one (run, key) pair — see run.filterCheck.
const (
	runProbe     = iota // the run may hold the key: descend
	runSkipFence        // key outside [min, max]: provably absent
	runSkipBloom        // bloom filter says absent (no false negatives)
)

// filterCheck is the read path's pre-descent gate: the fence interval
// (the run's smallest and largest keys) proves most out-of-range keys
// absent for free, and the bloom filter catches most in-range misses
// for one cache line — so a point lookup skips runs without faulting
// their pages. A runProbe answer is the only case that descends; bloom
// false positives cost a wasted descent, never a wrong answer.
func (r *run[K, V]) filterCheck(key K) int {
	s := r.st
	if key < s.fences[0] || s.maxKey < key {
		return runSkipFence
	}
	if s.bloom != nil && !s.bloom.MayContain(keyHash(key)) {
		return runSkipBloom
	}
	return runProbe
}
