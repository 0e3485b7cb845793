package core_test

import (
	"fmt"
	"testing"

	"implicitlayout/internal/core"
	"implicitlayout/internal/gpu"
	"implicitlayout/internal/par"
	"implicitlayout/internal/pem"
	"implicitlayout/internal/trace"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
)

// goldenCase is one pinned run of the paper's operation: a layout, a
// family, a size, a worker count and the vEB gather variant.
type goldenCase struct {
	kind    layout.Kind
	algo    core.Algorithm
	n, p    int
	variant string // "", "transposed" or "batched" (vEB cycle-leader only)
}

func (c goldenCase) String() string {
	s := fmt.Sprintf("%v/%v/n=%d/P=%d", c.kind, c.algo, c.n, c.p)
	if c.variant != "" {
		s += "/" + c.variant
	}
	return s
}

// goldenCounts is what every cost model charges for one run: the trace
// backend's operation counts, the PEM simulator's block transfers and the
// GPU model's transactions and instructions.
type goldenCounts struct {
	Swaps, Work, MaxWork, Instr, Rounds int64
	PEMMax, PEMTotal                    int64
	GPUTxns, GPUInstr                   int64
}

// goldenPEM is small enough that the 2^12-element runs evict, so the
// transfer counts depend on the order of the accesses, not only on the
// set of blocks touched.
var goldenPEM = pem.Config{M: 512, B: 8}

// goldenGPU narrows the modelled line to four words: at the K40's
// sixteen, a 2^12-element array fits the 256-line tag cache whole and
// every run would read the same compulsory transaction count.
var goldenGPU = func() gpu.Device {
	d := gpu.TeslaK40()
	d.LineBytes = 32
	return d
}()

const goldenB = 8

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, k := range layout.Kinds() {
		perfect := 1<<12 - 1
		if k == layout.BTree {
			perfect = 9*9*9*9 - 1 // (B+1)^4 - 1
		}
		for _, n := range []int{perfect, 3 << 10, 1 << 12} {
			for _, p := range []int{1, 3} {
				for _, a := range core.Algorithms() {
					cs = append(cs, goldenCase{kind: k, algo: a, n: n, p: p})
				}
				if k == layout.VEB {
					cs = append(cs,
						goldenCase{kind: k, algo: core.CycleLeader, n: n, p: p, variant: "transposed"},
						goldenCase{kind: k, algo: core.CycleLeader, n: n, p: p, variant: "batched"})
				}
			}
		}
	}
	return cs
}

func (c goldenCase) options() core.Options {
	r := par.New(c.p)
	r.MinFor = 1 // split every loop, so the parallel paths run at these sizes
	o := core.Options{Runner: r, B: goldenB}
	switch c.variant {
	case "transposed":
		o.TransposedGather = true
	case "batched":
		o.GatherBatch = 4
	}
	return o
}

// measure runs the case on the three model backends and checks each
// result against the reference layout.
func (c goldenCase) measure(t *testing.T) goldenCounts {
	t.Helper()
	want := layout.Build(c.kind, workload.Sorted(c.n), goldenB)
	check := func(backend string, got []uint64) {
		t.Helper()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: %s result differs from the reference layout at %d", c, backend, i)
			}
		}
	}
	o := c.options()

	tv := trace.New(workload.Sorted(c.n), c.p)
	core.Permute[uint64](o, tv, c.kind, c.algo)
	check("trace", tv.Data)

	pv := pem.New(workload.Sorted(c.n), c.p, goldenPEM)
	core.Permute[uint64](o, pv, c.kind, c.algo)
	check("pem", pv.Data)

	gv := gpu.NewVec(workload.Sorted(c.n), c.p, goldenGPU)
	core.Permute[uint64](o, gv, c.kind, c.algo)
	check("gpu", gv.Data)
	gc := gv.Cost()

	return goldenCounts{
		Swaps: tv.Swaps(), Work: tv.Work(), MaxWork: tv.MaxWork(), Instr: tv.Instr(), Rounds: tv.Rounds(),
		PEMMax: pv.MaxIO(), PEMTotal: pv.TotalIO(),
		GPUTxns: gc.Txns, GPUInstr: gc.Instr,
	}
}

// TestGoldenCounts pins the paper's operation: for every layout × family
// (and the vEB gather variants) at a perfect size, 3·2^10 and 2^12, on
// one and three workers, the trace swap and work counts, the PEM block
// transfers and the GPU model's costs must equal the values recorded in
// goldenValues. A change that only makes the data movement cheaper on
// real memory leaves every one of them bit-identical; a change to the
// swap sequence moves at least one.
func TestGoldenCounts(t *testing.T) {
	cs := goldenCases()
	if len(cs) != len(goldenValues) {
		t.Fatalf("%d cases but %d golden values", len(cs), len(goldenValues))
	}
	for _, c := range cs {
		want, ok := goldenValues[c.String()]
		if !ok {
			t.Fatalf("%v: no golden value", c)
		}
		if got := c.measure(t); got != want {
			t.Errorf("%v:\n got %+v\nwant %+v", c, got, want)
		}
	}
}

// goldenValues were recorded from the swap-per-element kernels, before
// the unit loops moved into the backends (Vec.SwapUnits); the test passes
// on both sides of that change.
var goldenValues = map[string]goldenCounts{
	// Swaps, Work, MaxWork, Instr, Rounds, PEMMax, PEMTotal, GPUTxns, GPUInstr
	"bst/involution/n=4095/P=1":              {3969, 7938, 7938, 49140, 2, 4085, 4085, 4303, 72954},
	"bst/cycle-leader/n=4095/P=1":            {20481, 40962, 40962, 0, 12249, 2059, 2059, 2567, 49150},
	"bst/involution/n=4095/P=3":              {3969, 7938, 3738, 49140, 2, 1662, 4080, 4325, 72954},
	"bst/cycle-leader/n=4095/P=3":            {20481, 40962, 18434, 0, 12249, 882, 2039, 2944, 49150},
	"bst/involution/n=3072/P=1":              {8086, 16172, 16172, 176116, 10, 4339, 4339, 4501, 224632},
	"bst/cycle-leader/n=3072/P=1":            {15350, 30700, 30700, 151552, 6116, 3439, 3439, 3769, 210876},
	"bst/involution/n=3072/P=3":              {8086, 16172, 6456, 176116, 10, 2059, 4374, 4304, 224632},
	"bst/cycle-leader/n=3072/P=3":            {15350, 30700, 12092, 151552, 6116, 1643, 3479, 4161, 210876},
	"bst/involution/n=4096/P=1":              {8064, 16128, 16128, 49140, 4, 5105, 5105, 6350, 97524},
	"bst/cycle-leader/n=4096/P=1":            {24576, 49152, 49152, 0, 12251, 3083, 3083, 4615, 73720},
	"bst/involution/n=4096/P=3":              {8064, 16128, 6470, 49140, 4, 2002, 5106, 5870, 97524},
	"bst/cycle-leader/n=4096/P=3":            {24576, 49152, 21160, 0, 12251, 1226, 3017, 4316, 73720},
	"btree/involution/n=6560/P=1":            {13362, 26724, 26724, 906960, 12, 12638, 12638, 12404, 987132},
	"btree/cycle-leader/n=6560/P=1":          {23056, 46112, 46112, 0, 3672, 3069, 3069, 3813, 78144},
	"btree/involution/n=6560/P=3":            {13362, 26724, 13448, 906960, 12, 6494, 12640, 12462, 987132},
	"btree/cycle-leader/n=6560/P=3":          {23056, 46112, 17312, 0, 3672, 1195, 3048, 3618, 78144},
	"btree/involution/n=3072/P=1":            {11752, 23504, 23504, 474528, 18, 6270, 6270, 6774, 545040},
	"btree/cycle-leader/n=3072/P=1":          {12028, 24056, 24056, 397120, 406, 5971, 5971, 6772, 466120},
	"btree/involution/n=3072/P=3":            {11752, 23504, 9116, 474528, 18, 3165, 6151, 6248, 545040},
	"btree/cycle-leader/n=3072/P=3":          {12028, 24056, 8728, 397120, 406, 2855, 5854, 6270, 466120},
	"btree/involution/n=4096/P=1":            {15984, 31968, 31968, 648608, 18, 9382, 9382, 10973, 744512},
	"btree/cycle-leader/n=4096/P=1":          {16260, 32520, 32520, 571200, 406, 9083, 9083, 10971, 665592},
	"btree/involution/n=4096/P=3":            {15984, 31968, 12174, 648608, 18, 4659, 9385, 10542, 744512},
	"btree/cycle-leader/n=4096/P=3":          {16260, 32520, 11798, 571200, 406, 4351, 9094, 10516, 665592},
	"veb/involution/n=4095/P=1":              {14033, 28066, 28066, 765860, 2604, 5531, 5531, 7549, 850058},
	"veb/cycle-leader/n=4095/P=1":            {14115, 28230, 28230, 0, 9346, 1345, 1345, 2527, 84690},
	"veb/cycle-leader/n=4095/P=1/transposed": {33119, 66238, 66238, 0, 11926, 3337, 3337, 8660, 198714},
	"veb/cycle-leader/n=4095/P=1/batched":    {10279, 29266, 29266, 0, 8376, 1562, 1562, 2527, 79090},
	"veb/involution/n=4095/P=3":              {14033, 28066, 12068, 765860, 2604, 3130, 5602, 7154, 850058},
	"veb/cycle-leader/n=4095/P=3":            {14115, 28230, 9616, 0, 9346, 476, 1409, 1935, 84690},
	"veb/cycle-leader/n=4095/P=3/transposed": {33119, 66238, 23808, 0, 11926, 1272, 3281, 6718, 198714},
	"veb/cycle-leader/n=4095/P=3/batched":    {10279, 29266, 9956, 0, 8376, 572, 1592, 1935, 79090},
	"veb/involution/n=3072/P=1":              {24754, 49508, 49508, 614900, 2372, 7532, 7532, 8062, 763424},
	"veb/cycle-leader/n=3072/P=1":            {23922, 47844, 47844, 151552, 5140, 4874, 4874, 6230, 295084},
	"veb/cycle-leader/n=3072/P=1/transposed": {31288, 62576, 62576, 151552, 6810, 5838, 5838, 6230, 339280},
	"veb/cycle-leader/n=3072/P=1/batched":    {22902, 47982, 47982, 151552, 5005, 4866, 4866, 6230, 293320},
	"veb/involution/n=3072/P=3":              {24754, 49508, 21440, 614900, 2372, 3845, 7413, 6346, 763424},
	"veb/cycle-leader/n=3072/P=3":            {23922, 47844, 18352, 151552, 5140, 2032, 4780, 5128, 295084},
	"veb/cycle-leader/n=3072/P=3/transposed": {31288, 62576, 23416, 151552, 6810, 2342, 5530, 5146, 339280},
	"veb/cycle-leader/n=3072/P=3/batched":    {22902, 47982, 18508, 151552, 5005, 2044, 4783, 5123, 293320},
	"veb/involution/n=4096/P=1":              {24176, 48352, 48352, 979608, 3180, 10496, 10496, 12431, 1124664},
	"veb/cycle-leader/n=4096/P=1":            {23556, 47112, 47112, 0, 8744, 3503, 3503, 6410, 119000},
	"veb/cycle-leader/n=4096/P=1/transposed": {27382, 54764, 54764, 0, 11382, 3503, 3503, 6410, 141956},
	"veb/cycle-leader/n=4096/P=1/batched":    {23500, 47140, 47140, 0, 8718, 3503, 3503, 6410, 118944},
	"veb/involution/n=4096/P=3":              {24176, 48352, 21638, 979608, 3180, 5332, 10301, 11006, 1124664},
	"veb/cycle-leader/n=4096/P=3":            {23556, 47112, 17814, 0, 8744, 1241, 3331, 4700, 119000},
	"veb/cycle-leader/n=4096/P=3/transposed": {27382, 54764, 20650, 0, 11382, 1241, 3331, 4700, 141956},
	"veb/cycle-leader/n=4096/P=3/batched":    {23500, 47140, 17842, 0, 8718, 1241, 3331, 4700, 118944},
	"hier/involution/n=4095/P=1":             {28439, 56878, 56878, 984336, 122, 8133, 8133, 10210, 1154970},
	"hier/cycle-leader/n=4095/P=1":           {28311, 56622, 56622, 938896, 378, 8133, 8133, 10210, 1108762},
	"hier/involution/n=4095/P=3":             {28439, 56878, 20722, 984336, 122, 3736, 8089, 9410, 1154970},
	"hier/cycle-leader/n=4095/P=3":           {28311, 56622, 20626, 938896, 378, 3736, 8089, 9410, 1108762},
	"hier/involution/n=3072/P=1":             {20552, 41104, 41104, 684964, 94, 5018, 5018, 6074, 808276},
	"hier/cycle-leader/n=3072/P=1":           {20456, 40912, 40912, 650884, 286, 5018, 5018, 6074, 773620},
	"hier/involution/n=3072/P=3":             {20552, 41104, 14846, 684964, 94, 2337, 4996, 5287, 808276},
	"hier/cycle-leader/n=3072/P=3":           {20456, 40912, 14782, 650884, 286, 2337, 4996, 5287, 773620},
	"hier/involution/n=4096/P=1":             {28442, 56884, 56884, 984336, 122, 8133, 8133, 10204, 1154988},
	"hier/cycle-leader/n=4096/P=1":           {28314, 56628, 56628, 938896, 378, 8133, 8133, 10204, 1108780},
	"hier/involution/n=4096/P=3":             {28442, 56884, 20722, 984336, 122, 3736, 8089, 9403, 1154988},
	"hier/cycle-leader/n=4096/P=3":           {28314, 56628, 20626, 938896, 378, 3736, 8089, 9403, 1108780},
}
