package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/search"
	"implicitlayout/store"
)

const (
	ingestPuts  = 1 << 21 // Puts in the ingest phase
	ingestSpace = 1 << 21 // keys they are drawn from (~37% overwrites)
	rangeSpan   = 64      // records per Range, on average
	batchKeys   = 1024    // keys per GetBatch
	lookupPool  = 1 << 18 // precomputed read-phase lookups
	getRep      = 1 << 14 // point Gets per repetition
	batchRep    = 16      // GetBatch calls per repetition
	rangeRep    = 256     // Range calls per repetition
	walProbe    = 1 << 14 // Puts measured for db.wal_b_per_put, all before the first freeze
	statsEvery  = 4096    // ops between Stats samples in the traced ingest
)

var (
	spIngestPhase = newSpanName("phase.ingest")
	spReadPhase   = newSpanName("phase.read")
	spLadderPhase = newSpanName("phase.ladder")
	spDBPut       = newSpanName("db.Put")
	spDBGet       = newSpanName("db.Get")
	spDBFlush     = newSpanName("db.Flush")
	spDBClose     = newSpanName("db.Close")
	spDBOpen      = newSpanName("db.Open")
	spDBScan      = newSpanName("db.Scan")
	spDBGetBatch  = newSpanName("db.GetBatch")
	spDBRange     = newSpanName("db.Range")
	spStoreGet    = newSpanName("store.Get")
	spStoreBatch  = newSpanName("store.GetBatch")
	spStoreRange  = newSpanName("store.Range")
	spFind        = newSpanName("search.Find")
	spFindBatch   = newSpanName("search.FindBatchInto")
	spIndexRange  = newSpanName("search.Range")
)

type db = store.DB[uint64, uint64]

// ingestSetup is what the ingest-read set-up produces: the inputs and an
// empty durable DB.
type ingestSetup struct {
	keys   []uint64
	stream ingestStream
	dir    string
	db     *db
}

func runIngestRead(b *bench) error {
	n := 0
	s, err := timedSetup(b, func() (ingestSetup, error) {
		n++
		s := ingestSetup{keys: universe(b.seed, ingestSpace), stream: newIngestStream(b.seed, ingestPuts, ingestSpace)}
		s.dir = filepath.Join(b.work, fmt.Sprintf("db%d", n))
		c := b.tr.begin(spDBOpen, 0)
		var err error
		s.db, err = store.Open[uint64, uint64](s.dir, store.DBConfig{})
		b.tr.end(c)
		return s, err
	}, func(s ingestSetup) {
		s.db.Close()
		os.RemoveAll(s.dir)
		freeOffHeap(s.keys)
		s.stream.free()
	})
	if err != nil {
		return err
	}
	m := newModel(s.keys)
	if err := ingest(b, s, m); err != nil {
		return err
	}
	dir := s.dir
	s.stream.free()
	s = ingestSetup{} // the closed DB is garbage now
	runtime.GC()
	return readPhase(b, dir, m)
}

// ingest runs the ingest phase: Puts with a Get after every getEvery-th,
// then Flush and Close.
func ingest(b *bench, s ingestSetup, m *model) error {
	d := s.db
	var frozenMax, runsMax int
	sample := func() {
		st := d.Stats()
		frozenMax, runsMax = max(frozenMax, st.FrozenTables), max(runsMax, st.Runs())
	}
	io0, err := readProcIO()
	if err != nil {
		return err
	}
	mem0 := readMem()
	ph := b.beginPhase(spIngestPhase, 0)
	t0 := time.Now()
	for j, i := range s.stream.Puts {
		v := valueOf(b.seed, streamIngest, j)
		c := b.tr.begin(spDBPut, uint32(j))
		err := d.Put(s.keys[i], v)
		b.tr.end(c)
		if !b.chk.op(err == nil) {
			b.chk.failf("db.Put #%d: %v", j, err)
		}
		if err == nil {
			m.put(i, v)
		}
		if (j+1)%getEvery == 0 {
			g := s.stream.Gets[j/getEvery]
			c := b.tr.begin(spDBGet, uint32(j))
			got, ok := d.Get(s.keys[g])
			b.tr.end(c)
			if !b.chk.op(m.check(g, got, ok)) {
				b.chk.failf("db.Get(%x) during ingest = %x,%v", s.keys[g], got, ok)
			}
		}
		if b.traced() {
			if j+1 == walProbe {
				io, err := readProcIO()
				if err != nil {
					return err
				}
				b.setLayer("db.wal_b_per_put", "B/put", float64(io.WChar-io0.WChar)/walProbe)
			}
			if j%statsEvery == 0 {
				sample()
			}
		}
	}
	c := b.tr.begin(spDBFlush, 0)
	tf := time.Now()
	err = d.Flush()
	end := time.Now()
	b.tr.end(c)
	if !b.chk.op(err == nil) {
		b.chk.failf("db.Flush: %v", err)
	}
	ops := float64(ingestPuts + ingestPuts/getEvery)
	b.setE2E("primary_kops_s", "kops/s", ops/end.Sub(t0).Seconds()/1e3)
	b.setLayer("db.flush_wait_s", "s", end.Sub(tf).Seconds())
	mem1 := readMem()
	b.endPhase(ph)
	sample()

	c = b.tr.begin(spDBClose, 0)
	tc := time.Now()
	err = d.Close()
	b.setLayer("db.close_s", "s", time.Since(tc).Seconds())
	b.tr.end(c)
	if !b.chk.op(err == nil) {
		b.chk.failf("db.Close: %v", err)
	}
	io1, err := readProcIO()
	if err != nil {
		return err
	}
	b.setLayer("db.write_amp", "B/B", float64(io1.WChar-io0.WChar)/(16*ingestPuts))
	size, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	b.setE2E("bytes_per_rec", "B/rec", float64(size)/float64(m.n))

	b.setLayer("db.syscw_per_put", "calls/put", float64(io1.SyscW-io0.SyscW)/ingestPuts)
	b.setLayer("db.allocs_per_put", "allocs/put", float64(mem1.Mallocs-mem0.Mallocs)/ingestPuts)
	b.setLayer("db.frozen_max", "count", float64(frozenMax))
	b.setLayer("db.runs_max", "count", float64(runsMax))
	b.setLayer("runtime.gc_cycles", "1/op", unforcedGC(mem0, mem1)/ops)
	b.setLayer("runtime.allocs_per_op", "allocs/op", float64(mem1.Mallocs-mem0.Mallocs)/ops)
	for _, x := range []struct {
		name string
		sp   spanName
		q    float64
	}{{"db.put_p50_ns", spDBPut, 0.5}, {"db.put_p99_ns", spDBPut, 0.99}, {"db.ingest_get_p50_ns", spDBGet, 0.5}} {
		if b.traced() {
			b.setLayer(x.name, "ns", durQuantile(b.tr.durations(x.sp, spIngestPhase), x.q))
		}
	}
	return nil
}

// readPhase reopens the directory, checks that a full Scan equals the
// model, then times point Gets, GetBatch and Range.
func readPhase(b *bench, dir string, m *model) error {
	defer b.endPhase(b.beginPhase(spReadPhase, 0))
	c := b.tr.begin(spDBOpen, 0)
	t := time.Now()
	d, err := store.Open[uint64, uint64](dir, store.DBConfig{})
	b.setLayer("db.open_s", "s", time.Since(t).Seconds())
	b.tr.end(c)
	if err != nil {
		return err
	}
	defer d.Close()
	sk, sv := m.sorted()
	c = b.tr.begin(spDBScan, 0)
	i, good := 0, true
	d.Scan(func(k, v uint64) bool {
		good = i < len(sk) && k == sk[i] && v == sv[i]
		i++
		return good
	})
	b.tr.end(c)
	if !b.chk.op(good && i == len(sk)) {
		b.chk.failf("db.Scan after reopen diverged from the model at record %d of %d", i, len(sk))
	}

	live, absent := m.split()
	r := newRand(b.seed, streamRead)
	q := readQueries{
		seed: b.seed, m: m, sk: sk, sv: sv,
		pool: lookups(r, lookupPool, live, absent),
		span: uint64(math.MaxUint64/uint64(len(sk))) * rangeSpan,
	}
	st0 := d.Stats()
	b.setLayer("db.runs", "count", float64(st0.Runs()))
	dbRung := rung{
		get: d.Get, spGet: spDBGet, spBatch: spDBGetBatch, spRange: spDBRange,
		batch: func(keys []uint64, p int) ([]uint64, []bool) { return d.GetBatch(keys, p) },
		rng:   d.Range,
	}
	res := q.measure(b, dbRung)
	b.setE2E("secondary_kops_s", "kops/s", 1e6/res.getNs)
	// Each GetBatch wakes a second worker for half a millisecond, so its
	// rate follows the host's vCPU wake-up latency (README.md): reported,
	// not gated. The Range rate is reported beside it.
	if !b.brief {
		b.env["getbatch_mkeys_s"] = 1e3 / res.batchNs
		b.env["range_krec_s"] = 1e6 / res.rangeNs
	}
	if !b.traced() {
		return nil
	}
	st1 := d.Stats()
	res.report(b, "db")
	b.setLayer("db.probes_per_get", "runs/lookup", float64(st1.RunsProbed-st0.RunsProbed)/float64(res.getOps))
	b.setLayer("db.bloom_fpr", "ratio", bloomFPR(b, d, m, absent, r))
	b.setLayer("db.allocs_per_get", "allocs/op", res.allocs[0])
	b.setLayer("db.allocs_per_getbatch_key", "allocs/key", res.allocs[1])
	b.setLayer("db.allocs_per_range_rec", "allocs/rec", res.allocs[2])
	return ladder(b, q, sk, sv)
}

// bloomFPR runs getRep absent-only Gets and returns the share of the
// run checks that got past the fence test which the bloom filters failed
// to reject: probes ÷ (probes + bloom skips).
func bloomFPR(b *bench, d *db, m *model, absent []uint32, r *rand.Rand) float64 {
	s0 := d.Stats()
	for i := 0; i < getRep; i++ {
		k := absent[r.IntN(len(absent))]
		c := b.tr.begin(spDBGet, uint32(i))
		v, ok := d.Get(m.keys[k])
		b.tr.end(c)
		if !b.chk.op(m.check(k, v, ok)) {
			b.chk.failf("db.Get(%x) of an absent key = %x,%v", m.keys[k], v, ok)
		}
	}
	s1 := d.Stats()
	probed := float64(s1.RunsProbed - s0.RunsProbed)
	return probed / (probed + float64(s1.RunsSkippedBloom-s0.RunsSkippedBloom))
}

// ladder measures the same query stream one layer down at a time: a
// Store built from the live records, then one search.Index over them.
// Adjacent rows differ by one layer's cost.
func ladder(b *bench, q readQueries, sk, sv []uint64) error {
	defer b.endPhase(b.beginPhase(spLadderPhase, 0))
	st, err := store.Build(sk, sv)
	if err != nil {
		return err
	}
	q.measure(b, rung{
		get: st.Get, spGet: spStoreGet, spBatch: spStoreBatch, spRange: spStoreRange,
		batch: func(keys []uint64, p int) ([]uint64, []bool) {
			res := st.GetBatch(keys, p)
			return res.Vals, res.Found
		},
		rng: st.Range,
	}).report(b, "store")

	keys, vals := append([]uint64(nil), sk...), append([]uint64(nil), sv...)
	perm.PermuteWith(keys, vals, layout.VEB, perm.CycleLeader, perm.WithWorkers(runtime.GOMAXPROCS(0)))
	ix := search.NewIndex(keys, layout.VEB, 0)
	var pos []int
	q.measure(b, rung{
		get: func(k uint64) (uint64, bool) {
			if p := ix.Find(k); p >= 0 {
				return vals[p], true
			}
			return 0, false
		},
		spGet: spFind, spBatch: spFindBatch, spRange: spIndexRange,
		batch: func(ks []uint64, p int) ([]uint64, []bool) {
			if cap(pos) < len(ks) {
				pos = make([]int, len(ks))
			}
			pos = pos[:len(ks)]
			ix.FindBatchInto(ks, pos, p)
			vs, found := make([]uint64, len(ks)), make([]bool, len(ks))
			for i, p := range pos {
				if p >= 0 {
					vs[i], found[i] = vals[p], true
				}
			}
			return vs, found
		},
		rng: func(lo, hi uint64, yield func(k, v uint64) bool) {
			ix.Range(lo, hi, func(p int, k uint64) bool { return yield(k, vals[p]) })
		},
	}).report(b, "search")
	return nil
}

// rung is one layer's read interface, as the ladder drives it.
type rung struct {
	get                     func(uint64) (uint64, bool)
	batch                   func([]uint64, int) ([]uint64, []bool)
	rng                     func(lo, hi uint64, yield func(k, v uint64) bool)
	spGet, spBatch, spRange spanName
}

// readQueries is the read phase's query stream, shared by every rung.
type readQueries struct {
	seed   uint64
	m      *model
	sk, sv []uint64
	pool   []uint32 // universe indices, half live and half absent
	span   uint64   // key-space width of one Range
}

// readResult is one rung's figures: ns per Get, per GetBatch key and per
// Range record (medians over repetitions), the same three from the
// per-call spans of the traced run, allocations per op of each, and the
// Get count behind the read-amp ratio.
type readResult struct {
	getNs, batchNs, rangeNs float64
	spanNs                  [3]float64
	allocs                  [3]float64
	getOps                  int
}

// report sets the rung's per-layer ns figures. They come from the
// per-call spans (total span time ÷ keys or records), so the tracer's own
// bookkeeping between calls is excluded.
func (r readResult) report(b *bench, layer string) {
	names := [3]string{"get_ns", "getbatch_ns_per_key", "range_ns_per_rec"}
	if layer == "search" {
		names[0], names[1] = "find_ns", "findbatch_ns_per_key"
	}
	for i, v := range r.spanNs {
		b.setLayer(layer+"."+names[i], "ns", v)
	}
}

// measure times the three read shapes against one rung, interleaved
// round by round, and verifies every answer. The traced run caps the
// rounds so the in-memory trace stays bounded.
func (q readQueries) measure(b *bench, g rung) readResult {
	var res readResult
	maxRounds := 1 << 20
	if b.traced() {
		maxRounds = 8
	}
	window := func(rep, n int) []uint32 {
		off := ((rep + 1) * n) % (len(q.pool) - n)
		return q.pool[off : off+n]
	}
	// allocs counts mallocs across fn's critical section in the traced
	// run (ReadMemStats stops the world, so never in the timed run).
	allocs := func(i int, fn func()) {
		if !b.traced() {
			fn()
			return
		}
		m0 := readMem()
		fn()
		m1 := readMem()
		res.allocs[i] += float64(m1.Mallocs - m0.Mallocs)
	}
	from := b.tr.mark()

	// Point Gets.
	vals, oks := make([]uint64, getRep), make([]bool, getRep)
	getOnce := func(rep int) time.Duration {
		idx := window(rep, getRep)
		var d time.Duration
		allocs(0, func() {
			t := time.Now()
			for i, k := range idx {
				c := b.tr.begin(g.spGet, uint32(i))
				vals[i], oks[i] = g.get(q.m.keys[k])
				b.tr.end(c)
			}
			d = time.Since(t)
		})
		res.getOps += getRep
		for i, k := range idx {
			if !b.chk.op(q.m.check(k, vals[i], oks[i])) {
				b.chk.failf("Get(%x) = %x,%v", q.m.keys[k], vals[i], oks[i])
			}
		}
		return d
	}

	// GetBatch.
	p := runtime.GOMAXPROCS(0)
	keys := make([]uint64, batchRep*batchKeys)
	bv, bf := make([][]uint64, batchRep), make([][]bool, batchRep)
	batchOps := 0
	batchOnce := func(rep int) time.Duration {
		idx := window(rep, len(keys))
		for i, k := range idx {
			keys[i] = q.m.keys[k]
		}
		var d time.Duration
		allocs(1, func() {
			t := time.Now()
			for j := range batchRep {
				c := b.tr.begin(g.spBatch, uint32(j))
				bv[j], bf[j] = g.batch(keys[j*batchKeys:(j+1)*batchKeys], p)
				b.tr.end(c)
			}
			d = time.Since(t)
		})
		batchOps += len(keys)
		for j := range batchRep {
			for i := range batchKeys {
				k := idx[j*batchKeys+i]
				if !b.chk.op(i < len(bv[j]) && q.m.check(k, bv[j][i], bf[j][i])) {
					b.chk.failf("GetBatch key %x", q.m.keys[k])
				}
			}
		}
		return d
	}

	// Range over ~rangeSpan records. Record counts differ per repetition,
	// so the figure is the median of per-repetition rates.
	los := make([]uint64, rangeRep)
	gk, gv := make([]uint64, 0, 4*rangeSpan*rangeRep), make([]uint64, 0, 4*rangeSpan*rangeRep)
	ends := make([]int, rangeRep)
	var rates []float64
	rangeRecs := 0
	rr := newRand(q.seed, streamRead+1) // every rung sees the same ranges
	rangeOnce := func(rep int) time.Duration {
		for i := range los {
			los[i] = rr.Uint64N(math.MaxUint64 - q.span)
		}
		gk, gv = gk[:0], gv[:0]
		var d time.Duration
		allocs(2, func() {
			t := time.Now()
			for i, lo := range los {
				c := b.tr.begin(g.spRange, uint32(i))
				g.rng(lo, lo+q.span, func(k, v uint64) bool {
					gk, gv = append(gk, k), append(gv, v)
					return true
				})
				b.tr.end(c)
				ends[i] = len(gk)
			}
			d = time.Since(t)
		})
		rangeRecs += len(gk)
		start := 0
		for i, lo := range los {
			if !b.chk.op(rangeCheck(q.sk, q.sv, lo, lo+q.span, gk[start:ends[i]], gv[start:ends[i]])) {
				b.chk.failf("Range(%x, %x) returned %d records", lo, lo+q.span, ends[i]-start)
			}
			start = ends[i]
		}
		if rep >= 0 {
			rates = append(rates, float64(len(gk))/float64(d))
		}
		return d
	}

	times := rounds(true, b.minRounds(5), maxRounds, b.budget, getOnce, batchOnce, rangeOnce)
	res.getNs = durQuantile(times[0], 0.5) / getRep
	res.batchNs = durQuantile(times[1], 0.5) / float64(len(keys))
	res.rangeNs = 1 / median(rates)
	res.allocs[0] /= float64(res.getOps)
	res.allocs[1] /= float64(batchOps)
	res.allocs[2] /= float64(rangeRecs)
	res.spanNs[0] = b.tr.sumSince(from, g.spGet) / float64(res.getOps)
	res.spanNs[1] = b.tr.sumSince(from, g.spBatch) / float64(batchOps)
	res.spanNs[2] = b.tr.sumSince(from, g.spRange) / float64(rangeRecs)
	return res
}
