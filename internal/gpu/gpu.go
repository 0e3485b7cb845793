// Package gpu is the GPU substitute of this reproduction: a SIMT cost
// model standing in for the paper's NVidia Tesla K40. It does not emulate
// CUDA; it executes the real permutation algorithms and query loops
// functionally while charging the three costs that determine GPU running
// time at this workload's scale:
//
//   - memory transactions: every access goes through a small per-processor
//     direct-mapped line cache (128-byte lines), so streaming access
//     coalesces and scattered access pays one transaction per element —
//     the coalescing behaviour of a GPU memory controller;
//   - instructions: index arithmetic is charged through vec.AddInstr, so
//     the extended-Euclid J involutions are expensive and hardware bit
//     reversal is O(1), the T_REV2 distinction of the paper;
//   - kernel launches: derived from the kernel decomposition each
//     algorithm's GPU port uses (see Launches) — flat involution rounds
//     and level-batched gathers cost a handful of launches, while the
//     recursive vEB ports launch per subtree, the overhead the paper
//     blames for vEB's poor GPU performance (Figure 6.8).
//
// The absolute numbers are a model; the shape — who wins and by roughly
// what factor — is what to compare against the paper's Figures 6.8 and
// 6.9 (cmd/paperbench's fig6.8 and fig6.9 experiments print them).
package gpu

import (
	"implicitlayout/internal/core"
	"implicitlayout/internal/trace"
	"implicitlayout/layout"
)

// Device describes the simulated accelerator.
type Device struct {
	// Name labels the device in reports.
	Name string
	// SMs and CoresPerSM give the compute width.
	SMs, CoresPerSM int
	// ClockGHz is the core clock.
	ClockGHz float64
	// MemBandwidthGBps is the global-memory bandwidth.
	MemBandwidthGBps float64
	// LineBytes is the memory transaction (cache line) size.
	LineBytes int
	// WordBytes is the element size (8 for the paper's 64-bit keys).
	WordBytes int
	// LaunchOverheadUs is the fixed cost of one kernel launch.
	LaunchOverheadUs float64
	// HasBitrev reports a hardware bit-reversal instruction (the K40 has
	// one, making T_REV2 = O(1) on this platform).
	HasBitrev bool
}

// TeslaK40 returns the configuration of the paper's GPU platform.
func TeslaK40() Device {
	return Device{
		Name:             "tesla-k40-sim",
		SMs:              15,
		CoresPerSM:       192,
		ClockGHz:         0.745,
		MemBandwidthGBps: 288,
		LineBytes:        128,
		WordBytes:        8,
		LaunchOverheadUs: 5,
		HasBitrev:        true,
	}
}

// Cost aggregates the model costs of one GPU execution.
type Cost struct {
	// Launches is the number of kernel launches.
	Launches int64
	// Txns is the number of memory transactions (LineBytes each).
	Txns int64
	// Instr is the number of model instructions.
	Instr int64
}

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{c.Launches + o.Launches, c.Txns + o.Txns, c.Instr + o.Instr}
}

// TimeMS converts a cost to model milliseconds: launches serialize;
// memory and compute overlap, so the larger of the two dominates.
func (d Device) TimeMS(c Cost) float64 {
	launch := float64(c.Launches) * d.LaunchOverheadUs / 1e3
	mem := float64(c.Txns) * float64(d.LineBytes) / (d.MemBandwidthGBps * 1e9) * 1e3
	comp := float64(c.Instr) / (float64(d.SMs*d.CoresPerSM) * d.ClockGHz * 1e9) * 1e3
	if mem > comp {
		return launch + mem
	}
	return launch + comp
}

// tagSlots is the per-processor direct-mapped line-cache size: enough to
// capture the streaming reuse a warp sees, far too small to hold working
// sets — which is exactly the regime of a GPU L1/texture path.
const tagSlots = 256

// lines is one processor's line tags and its count of transactions. A
// slot holds its line's index plus one, so the zero value is empty.
type lines struct {
	tags [tagSlots]int64
	txns int64
	_    [7]int64
}

// lineCaches is the trace.Cache of the GPU model: one direct-mapped
// line-tag cache per processor, counting a memory transaction on every
// tag miss.
type lineCaches struct {
	dev   Device
	procs []lines
}

// Touch charges the line holding element i to processor p.
func (c *lineCaches) Touch(p, i int) {
	line := int64(i) * int64(c.dev.WordBytes) / int64(c.dev.LineBytes)
	st := &c.procs[p]
	if tag := &st.tags[uint64(line)%tagSlots]; *tag != line+1 {
		*tag = line + 1
		st.txns++
	}
}

// TouchPair charges the lines of both blocks, interleaved (streaming,
// so coalesced).
func (c *lineCaches) TouchPair(p, i, j, n int) {
	wpl := c.dev.LineBytes / c.dev.WordBytes
	for e := 0; e < n; e += wpl {
		c.Touch(p, i+e)
		c.Touch(p, j+e)
	}
	c.Touch(p, i+n-1)
	c.Touch(p, j+n-1)
}

// Vec is the cost-counting memory backend: a trace.Vec whose accesses
// are charged to the line caches. Concurrent callers must use distinct
// processor ids (CREW discipline).
type Vec[T any] struct {
	*trace.Vec[T]
	lines *lineCaches
}

// NewVec wraps data for p executor processors on device d.
func NewVec[T any](data []T, p int, d Device) *Vec[T] {
	if p < 1 {
		p = 1
	}
	c := &lineCaches{dev: d, procs: make([]lines, p)}
	return &Vec[T]{Vec: trace.NewCached(data, p, c), lines: c}
}

// Cost returns the accumulated memory and instruction cost (no launches).
// Each element access costs 2 instructions, a swap 6 and a block swap 2
// per element pair, on top of those charged through AddInstr.
func (v *Vec[T]) Cost() Cost {
	var c Cost
	for i := range v.lines.procs {
		c.Txns += v.lines.procs[i].txns
	}
	t := v.Counts()
	c.Instr = 2*t.Gets + 2*t.Sets + 6*t.Swaps + 2*t.Ranged + t.Instr
	return c
}

// Reset clears counters and invalidates all line caches.
func (v *Vec[T]) Reset() {
	v.Vec.Reset()
	clear(v.lines.procs)
}

// vebKernelCutoff is the subtree level count below which the recursive
// vEB GPU ports stop launching per-subtree kernels and finish the subtree
// within the parent kernel.
const vebKernelCutoff = 7

// Launches returns the kernel-launch count of algorithm a building layout
// k over n keys (node capacity b), per the kernel decomposition of each
// GPU port: the involution BST is two flat kernels; the involution B-tree
// four kernels per level; the cycle-leader BST/B-tree batch each gather
// recursion depth into two kernels; and the vEB ports (both families)
// launch per subtree down to the cutoff — the recursion penalty of
// Figure 6.8. Non-perfect sizes add a constant pre-pass.
func Launches(k layout.Kind, a core.Algorithm, n, b int) int64 {
	if n < 2 {
		return 0
	}
	var kernels int64
	prepass := int64(0)
	switch k {
	case layout.BST:
		full, d := layout.PerfectPrefix(n, 2)
		if full < n {
			prepass = 10
		}
		if a == core.Involution {
			kernels = 2
		} else {
			kernels = batchedGatherKernels(d)
		}
	case layout.BTree:
		full, d := layout.PerfectPrefix(n, b+1)
		if full < n {
			prepass = 10
		}
		if a == core.Involution {
			kernels = 4 * int64(d-1)
		} else {
			kernels = batchedGatherKernels(d)
		}
	case layout.VEB:
		levels := levelsOf(n)
		if pf, _ := layout.PerfectPrefix(n, 2); pf < n {
			prepass = 10
		}
		memo := map[int]int64{}
		kernels = 2 * vebSplitKernels(levels, memo)
		if a == core.CycleLeader {
			// each split is two gathers plus a knitting rotation on the
			// odd-level path; approximate with a factor of two.
			kernels *= 2
		}
	}
	return kernels + prepass
}

// batchedGatherKernels counts the kernels of a level-synchronous extended
// equidistant gather implementation: per tree level e, each of the e-1
// gather recursion depths batches all partitions into a phase-1 and a
// phase-2 kernel.
func batchedGatherKernels(d int) int64 {
	var t int64
	for e := 2; e <= d; e++ {
		t += 2 * int64(e-1)
	}
	if t == 0 {
		t = 1
	}
	return t
}

// vebSplitKernels counts the subtree splits that launch kernels in the
// recursive vEB ports: every subtree with at least vebKernelCutoff levels.
func vebSplitKernels(levels int, memo map[int]int64) int64 {
	if levels < vebKernelCutoff || levels <= 1 {
		return 0
	}
	if v, ok := memo[levels]; ok {
		return v
	}
	lt, lb := layout.VEBSplit(levels)
	v := 1 + vebSplitKernels(lt, memo) + int64(1)<<uint(lt)*vebSplitKernels(lb, memo)
	memo[levels] = v
	return v
}

func levelsOf(n int) int {
	l := 0
	for v := n; v > 0; v >>= 1 {
		l++
	}
	return l
}
