package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/store"
)

// buildN is the build workload's record count: 64 MiB of keys and values,
// well beyond L2 and most of a shared L3.
const buildN = 1 << 22

var (
	spSetup      = newSpanName("phase.setup")
	spBuildPhase = newSpanName("phase.build")
	spSweepPhase = newSpanName("phase.perm_sweep")
	spBuild      = newSpanName("store.Build")
	spPermute    = newSpanName("perm.PermuteWith")
)

// buildInput is the build workload's data: unsorted records and the same
// records in key order.
type buildInput struct {
	keys, vals []uint64
	sk, sv     []uint64
}

func newBuildInput(seed uint64) buildInput {
	in := buildInput{keys: universe(seed, buildN), vals: offHeap[uint64](buildN)}
	for i, k := range in.keys {
		in.vals[i] = buildValue(seed, k)
	}
	in.sk = offHeap[uint64](buildN)
	copy(in.sk, in.keys)
	slices.Sort(in.sk)
	in.sv = offHeap[uint64](buildN)
	for j, k := range in.sk {
		in.sv[j] = buildValue(seed, k)
	}
	return in
}

func (in buildInput) free() {
	for _, s := range [][]uint64{in.keys, in.vals, in.sk, in.sv} {
		freeOffHeap(s)
	}
}

// buildValue is the value stored with key k: a function of the key, so the
// sorted copy of the records needs only a key sort.
func buildValue(seed, k uint64) uint64 { return mix(k ^ mix(seed^streamBuild<<56)) }

// timedSetup runs setup three times (once in a brief workload) and
// reports the median as setup_s, returning the last result and handing
// the earlier ones to discard (outside the timing); repeated set-ups make
// the figure a median rather than one sample.
func timedSetup[T any](b *bench, setup func() (T, error), discard func(T)) (T, error) {
	var out T
	var ds []time.Duration
	n := 3
	if b.brief {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(out)
		}
		runtime.GC()
		sp := b.tr.begin(spSetup, uint32(i))
		t := time.Now()
		v, err := setup()
		ds = append(ds, time.Since(t))
		b.tr.end(sp)
		if err != nil {
			return out, err
		}
		out = v
	}
	b.setE2E("setup_s", "s", durQuantile(ds, 0.5)/1e9)
	return out, nil
}

func runBuild(b *bench) error {
	in, err := timedSetup(b, func() (buildInput, error) { return newBuildInput(b.seed), nil }, buildInput.free)
	if err != nil {
		return err
	}
	r := newRand(b.seed, streamBuild)
	absent := universe(b.seed^0x5a5a5a5a, 1<<12) // disjoint with overwhelming probability; checked below
	slices.Sort(absent)
	absent = slices.DeleteFunc(absent, func(k uint64) bool {
		_, found := slices.BinarySearch(in.sk, k)
		return found
	})

	// Build, the full pipeline on unsorted records with library defaults,
	// interleaved with the paper's operation alone: the default permutation
	// of the sorted pairs, three times a round. A permutation takes a
	// quarter of a Build and its two workers stall whenever the host takes
	// a vCPU away, so it needs more samples for a steady median.
	var allocs, gcs []float64
	buildOnce := func(rep int) time.Duration {
		var m0 memSample
		if b.traced() {
			m0 = readMem()
		}
		var heap0 int64
		if rep < 0 {
			heap0 = liveHeap()
		}
		c := b.tr.begin(spBuild, uint32(rep+1))
		t := time.Now()
		st, err := store.Build(in.keys, in.vals)
		d := time.Since(t)
		b.tr.end(c)
		if rep < 0 && err == nil {
			// The untimed warm-up also weighs the Store: the heap it
			// keeps live per record.
			b.setE2E("bytes_per_rec", "B/rec", float64(liveHeap()-heap0)/buildN)
		}
		if b.traced() && rep >= 0 {
			m1 := readMem()
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			gcs = append(gcs, unforcedGC(m0, m1))
			b.setLayer("store.build_alloc_b_per_rec", "B/rec", float64(m1.TotalAlloc-m0.TotalAlloc)/buildN)
		}
		if !b.chk.op(err == nil) {
			b.chk.failf("store.Build: %v", err)
		}
		if err == nil {
			verifyStore(b, st, in, r, absent, rep == 0)
		}
		return d
	}
	wk, wv := offHeap[uint64](buildN), offHeap[uint64](buildN)
	p := runtime.GOMAXPROCS(0)
	ph := b.beginPhase(spBuildPhase, 0)
	maxRounds := 40
	if b.traced() {
		maxRounds = b.minRounds(5) // leaves time for the perm sweep and the other workloads
	}
	permute := permOnce(b, in, wk, wv, layout.VEB, perm.CycleLeader, p, r)
	times := rounds(true, b.minRounds(5), maxRounds, b.budget, buildOnce, permute, permute, permute)
	b.endPhase(ph)
	buildMed, permMed := durQuantile(times[0], 0.5), durQuantile(slices.Concat(times[1:]...), 0.5)
	if !b.brief {
		b.env["build_samples"], b.env["permute_samples"] = len(times[0]), 3*len(times[0])
	}
	// Thousands of records per second: through store.Build, and through
	// the permutation alone.
	b.setE2E("primary_kops_s", "kops/s", buildN/buildMed*1e6)
	b.setE2E("secondary_kops_s", "kops/s", buildN/permMed*1e6)

	if !b.traced() {
		return nil
	}
	b.setLayer("store.build_s", "s", buildMed/1e9)
	b.setLayer("store.build_nonperm_s", "s", (buildMed-permMed)/1e9)
	b.setLayer("runtime.allocs_per_op", "allocs/op", median(allocs))
	b.setLayer("runtime.gc_cycles", "1/op", median(gcs))

	// The paper's Fig. 6.1 cells at this N, then its parallel claim, one
	// repetition each: the cycle-leader cells of the non-vEB layouts take
	// seconds apiece, and a traced run must also fit the other workloads.
	defer b.endPhase(b.beginPhase(spSweepPhase, 0))
	med := func(k layout.Kind, a perm.Algorithm, p int) float64 {
		return durQuantile(rounds(false, 1, 1, 0, permOnce(b, in, wk, wv, k, a, p, r))[0], 0.5)
	}
	for _, k := range layout.Kinds() {
		for _, a := range []perm.Algorithm{perm.CycleLeader, perm.Involution} {
			b.setLayer(fmt.Sprintf("perm.%v_%s_mrec_s", k, algoName(a)), "Mrec/s",
				buildN/med(k, a, p)*1e3)
		}
	}
	b.setLayer("perm.speedup_p2", "x", med(layout.VEB, perm.CycleLeader, 1)/med(layout.VEB, perm.CycleLeader, 2))
	return nil
}

func algoName(a perm.Algorithm) string {
	if a == perm.CycleLeader {
		return "cycle"
	}
	return "invol"
}

// permOnce returns one timed repetition of perm.PermuteWith of the
// sorted pairs into layout k with p workers: it refills the work buffers,
// times the permutation, and verifies the result.
func permOnce(b *bench, in buildInput, wk, wv []uint64, k layout.Kind, a perm.Algorithm, p int, r interface{ IntN(int) int }) func(int) time.Duration {
	return func(rep int) time.Duration {
		copy(wk, in.sk)
		copy(wv, in.sv)
		c := b.tr.begin(spPermute, uint32(rep+1))
		t := time.Now()
		perm.PermuteWith(wk, wv, k, a, perm.WithWorkers(p))
		d := time.Since(t)
		b.tr.end(c)
		verifyLayout(b, in, wk, wv, k, r)
		return d
	}
}

// verifyLayout checks the permuted arrays against the layout's rank map:
// 4096 sampled ranks must sit where layout.PosOf puts them, with their
// values, and the arrays must still hold exactly the input records.
func verifyLayout(b *bench, in buildInput, wk, wv []uint64, k layout.Kind, r interface{ IntN(int) int }) {
	for i := 0; i < 4096; i++ {
		rank := r.IntN(buildN)
		pos := layout.PosOf(k, rank, buildN, perm.DefaultB)
		if !b.chk.op(wk[pos] == in.sk[rank] && wv[pos] == in.sv[rank]) {
			b.chk.failf("%v: rank %d at pos %d holds (%x,%x), want (%x,%x)", k, rank, pos, wk[pos], wv[pos], in.sk[rank], in.sv[rank])
		}
	}
	var ksum, vsum, wks, wvs uint64
	for i := range wk {
		ksum += in.sk[i]
		vsum += in.sv[i]
		wks += wk[i]
		wvs += wv[i]
	}
	if !b.chk.op(ksum == wks && vsum == wvs) {
		b.chk.failf("%v: permuted arrays lost or duplicated records", k)
	}
}

// verifyStore checks a built Store: its size, 4096 sampled present keys
// and their values, the absent keys, and — when full — a Scan that must
// equal the sorted input exactly.
func verifyStore(b *bench, st *store.Store[uint64, uint64], in buildInput, r interface{ IntN(int) int }, absent []uint64, full bool) {
	if !b.chk.op(st.Len() == buildN) {
		b.chk.failf("store.Len = %d, want %d", st.Len(), buildN)
	}
	for i := 0; i < 4096; i++ {
		j := r.IntN(buildN)
		v, ok := st.Get(in.keys[j])
		if !b.chk.op(ok && v == in.vals[j]) {
			b.chk.failf("store.Get(%x) = %x,%v want %x", in.keys[j], v, ok, in.vals[j])
		}
	}
	for _, k := range absent {
		_, ok := st.Get(k)
		if !b.chk.op(!ok) {
			b.chk.failf("store.Get(%x) found an absent key", k)
		}
	}
	if !full {
		return
	}
	i, good := 0, true
	st.Scan(func(k, v uint64) bool {
		good = i < buildN && k == in.sk[i] && v == in.sv[i]
		i++
		return good
	})
	if !b.chk.op(good && i == buildN) {
		b.chk.failf("store.Scan diverged from the sorted input at record %d", i)
	}
}
