package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
)

// mix is the splitmix64 finalizer. Every step is invertible, so it is a
// bijection on uint64: distinct inputs give distinct keys, which is how
// the generator gets a key universe without duplicates or a dedupe pass.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Streams of one seed: each consumer draws from its own PCG stream, so
// adding draws to one phase never shifts another phase's inputs.
const (
	streamKeys uint64 = iota + 1
	streamVals
	streamIngest
	streamRead
	streamServe
	streamBuild
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// universe returns n distinct uniform-looking uint64 keys for seed.
func universe(seed uint64, n int) []uint64 {
	keys := offHeap[uint64](n)
	base := mix(seed ^ streamKeys<<56)
	for i := range keys {
		keys[i] = mix(base + uint64(i))
	}
	return keys
}

// valueOf is the value written by the j-th write of a stream: distinct
// for distinct j, so a stale or misrouted value never matches.
func valueOf(seed, stream uint64, j int) uint64 {
	return mix(mix(seed^stream<<56^streamVals<<48) + uint64(j))
}

// ingestStream is the ingest phase's operation sequence: Puts[j] is the
// universe index written by Put j (value valueOf(seed, streamIngest, j)),
// and after every getEvery-th Put the goroutine reads Gets[j/getEvery].
type ingestStream struct {
	Puts []uint32
	Gets []uint32
}

const getEvery = 4

func newIngestStream(seed uint64, puts, space int) ingestStream {
	r := newRand(seed, streamIngest)
	s := ingestStream{Puts: offHeap[uint32](puts), Gets: offHeap[uint32](puts / getEvery)}
	for i := range s.Puts {
		s.Puts[i] = uint32(r.IntN(space))
	}
	for i := range s.Gets {
		s.Gets[i] = uint32(r.IntN(space))
	}
	return s
}

// model is the generator's record of what the program must answer: the
// newest value written under each universe key, or absence.
type model struct {
	keys []uint64
	val  []uint64
	live []bool
	n    int // live records
}

func newModel(keys []uint64) *model {
	return &model{keys: keys, val: offHeap[uint64](len(keys)), live: offHeap[bool](len(keys))}
}

func (m *model) put(i uint32, v uint64) {
	if !m.live[i] {
		m.live[i] = true
		m.n++
	}
	m.val[i] = v
}

// check reports whether (v, ok) is the correct answer for a Get of
// universe key i.
func (m *model) check(i uint32, v uint64, ok bool) bool {
	return ok == m.live[i] && (!ok || v == m.val[i])
}

// free unmaps the model and its key universe.
func (m *model) free() {
	freeOffHeap(m.keys)
	freeOffHeap(m.val)
	freeOffHeap(m.live)
}

// split returns the live and absent universe indices, each in index order.
func (m *model) split() (live, absent []uint32) {
	for i, l := range m.live {
		if l {
			live = append(live, uint32(i))
		} else {
			absent = append(absent, uint32(i))
		}
	}
	return live, absent
}

// sorted returns the live records in ascending key order.
func (m *model) sorted() (keys, vals []uint64) {
	live, _ := m.split()
	slices.SortFunc(live, func(a, b uint32) int {
		switch {
		case m.keys[a] < m.keys[b]:
			return -1
		case m.keys[a] > m.keys[b]:
			return 1
		}
		return 0
	})
	keys = offHeap[uint64](len(live))
	vals = offHeap[uint64](len(live))
	for j, i := range live {
		keys[j], vals[j] = m.keys[i], m.val[i]
	}
	return keys, vals
}

func (s ingestStream) free() {
	freeOffHeap(s.Puts)
	freeOffHeap(s.Gets)
}

// lookups returns n universe indices, half drawn uniformly from live and
// half from absent, interleaved in random order.
func lookups(r *rand.Rand, n int, live, absent []uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		if r.IntN(2) == 0 {
			out[i] = live[r.IntN(len(live))]
		} else {
			out[i] = absent[r.IntN(len(absent))]
		}
	}
	return out
}

// rangeCheck compares one Range result against the model's sorted live
// records: exactly the records with lo <= key <= hi, ascending.
func rangeCheck(sk, sv []uint64, lo, hi uint64, gotK, gotV []uint64) bool {
	i, _ := slices.BinarySearch(sk, lo)
	j, _ := slices.BinarySearch(sk, hi)
	if j < len(sk) && sk[j] == hi {
		j++
	}
	return slices.Equal(sk[i:j], gotK) && slices.Equal(sv[i:j], gotV)
}

// checker counts attempted and failed operations; a failure is an error
// or an answer that disagrees with the model.
type checker struct {
	attempted, failed int64
	reported          int
}

// op counts one operation and reports whether it succeeded. The caller
// describes a failure with failf; keeping the description out of op keeps
// the hot paths free of formatting and allocation.
func (c *checker) op(ok bool) bool {
	c.attempted++
	if !ok {
		c.failed++
	}
	return ok
}

// failf describes a failed operation on standard error, the first ten.
func (c *checker) failf(format string, args ...any) {
	if c.reported < 10 {
		c.reported++
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}
