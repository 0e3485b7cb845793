package gpu

import (
	"sync"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/core"
	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// RunPermute executes permutation algorithm a over the sorted keys in data
// (in place) on the simulated device and returns the model cost, including
// the analytic kernel-launch count. p is the executor parallelism (it
// affects wall-clock of the simulation, not the modelled cost).
func RunPermute(dev Device, data []uint64, k layout.Kind, a core.Algorithm, b, p int) Cost {
	if p < 1 {
		p = 1
	}
	v := NewVec(data, p, dev)
	o := core.Options{
		Runner: par.Runner{Lo: 0, Hi: p, MinFor: 1 << 12},
		B:      b,
	}
	if dev.HasBitrev {
		o.Rev = bits.Hardware{}
	} else {
		o.Rev = bits.Software{}
	}
	core.Permute[uint64](o, v, k, a)
	c := v.Cost()
	c.Launches = Launches(k, a, len(data), b)
	return c
}

// RunQueries executes the batch-query kernel — one logical GPU thread per
// query, the paper's GPU search strategy — against data already permuted
// into layout k, and returns the model cost (a single kernel launch plus
// the measured memory transactions and instructions).
func RunQueries(dev Device, data []uint64, k layout.Kind, b int, queries []uint64, p int) Cost {
	if p < 1 {
		p = 1
	}
	v := NewVec(data, p, dev)
	n := len(data)
	nav := layout.NewVEBNav(max(n, 1))
	var wg sync.WaitGroup
	chunk := (len(queries) + p - 1) / p
	for w := 0; w < p; w++ {
		lo := w * chunk
		if lo >= len(queries) {
			break
		}
		hi := min(lo+chunk, len(queries))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, q := range queries[lo:hi] {
				queryKernel(v, nav, w, n, k, b, q)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	c := v.Cost()
	c.Launches = 1
	return c
}

// queryKernel performs one search through the cost-counting backend.
func queryKernel(v *Vec[uint64], nav layout.VEBNav, p, n int, k layout.Kind, b int, x uint64) int {
	switch k {
	case layout.Sorted:
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			e := v.Get(p, mid)
			v.AddInstr(p, 4)
			switch {
			case e == x:
				return mid
			case e < x:
				lo = mid + 1
			default:
				hi = mid
			}
		}
	case layout.BST:
		i := 0
		for i < n {
			e := v.Get(p, i)
			v.AddInstr(p, 4)
			switch {
			case e == x:
				return i
			case x < e:
				i = 2*i + 1
			default:
				i = 2*i + 2
			}
		}
	case layout.BTree:
		node := 0
		for {
			start := node * b
			if start >= n {
				return -1
			}
			end := min(start+b, n)
			c := start
			for c < end && v.Get(p, c) < x {
				v.AddInstr(p, 3)
				c++
			}
			if c < end && v.Get(p, c) == x {
				return c
			}
			node = node*(b+1) + 1 + (c - start)
			v.AddInstr(p, 6)
		}
	case layout.VEB:
		var cur layout.VEBCursor
		nav.InitCursor(&cur)
		for {
			pos := cur.Pos()
			// split-table navigation bookkeeping per level
			v.AddInstr(p, 12)
			e := v.Get(p, pos)
			v.AddInstr(p, 4)
			var dir int
			switch {
			case e == x:
				return pos
			case x < e:
				dir = 0
			default:
				dir = 1
			}
			if !cur.Descend(dir) {
				return -1
			}
		}
	}
	return -1
}
