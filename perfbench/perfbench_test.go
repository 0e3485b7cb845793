package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"implicitlayout/internal/wire"
)

func TestSameSeedSameOpStream(t *testing.T) {
	a := newIngestStream(7, 1<<12, 1<<10)
	b := newIngestStream(7, 1<<12, 1<<10)
	if !slices.Equal(a.Puts, b.Puts) || !slices.Equal(a.Gets, b.Gets) {
		t.Fatal("same seed produced different ingest streams")
	}
	c := newIngestStream(8, 1<<12, 1<<10)
	if slices.Equal(a.Puts, c.Puts) {
		t.Fatal("different seeds produced the same ingest stream")
	}
	if !slices.Equal(universe(7, 1000), universe(7, 1000)) {
		t.Fatal("same seed produced different key universes")
	}

	// The serve generator: same seed, same requests and values.
	draw := func(seed uint64) []wire.Request[uint64, uint64] {
		s := &serveSetup{keys: universe(seed, 2*servePreload)}
		s.m = newModel(s.keys)
		g := newServeGen(seed, s)
		var out []wire.Request[uint64, uint64]
		for range 1000 {
			req, _ := g.next()
			out = append(out, *req)
		}
		return out
	}
	if !slices.EqualFunc(draw(3), draw(3), func(x, y wire.Request[uint64, uint64]) bool {
		return x.Op == y.Op && x.Key == y.Key && x.Val == y.Val
	}) {
		t.Fatal("same seed produced different serve traffic")
	}
}

func TestUniverseDistinct(t *testing.T) {
	keys := universe(1, 1<<16)
	slices.Sort(keys)
	if len(slices.Compact(keys)) != 1<<16 {
		t.Fatal("universe keys collide")
	}
}

func TestModelRejectsCorruptValue(t *testing.T) {
	m := newModel(universe(1, 8))
	m.put(3, 42)
	var c checker
	c.op(m.check(3, 42, true))
	c.op(m.check(3, 43, true))
	c.op(m.check(3, 42, false))
	c.op(m.check(4, 0, true))
	c.op(m.check(4, 0, false))
	if c.attempted != 5 || c.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", c.attempted, c.failed)
	}

	// A wire reply carrying the wrong value counts as one failed op.
	b := &bench{}
	e := expect{op: wire.OpGet, key: m.keys[3], val: 42, found: true}
	e.check(b, &wire.Response[uint64, uint64]{Found: true, Val: 42}, nil)
	e.check(b, &wire.Response[uint64, uint64]{Found: true, Val: 41}, nil)
	if b.chk.attempted != 2 || b.chk.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", b.chk.attempted, b.chk.failed)
	}
}

func TestRangeCheck(t *testing.T) {
	sk := []uint64{10, 20, 30, 40}
	sv := []uint64{1, 2, 3, 4}
	if !rangeCheck(sk, sv, 15, 30, []uint64{20, 30}, []uint64{2, 3}) {
		t.Fatal("correct range rejected")
	}
	for _, bad := range [][2][]uint64{
		{{20, 30}, {2, 9}},        // corrupted value
		{{20}, {2}},               // missing record
		{{30, 20}, {3, 2}},        // out of order
		{{20, 30, 40}, {2, 3, 4}}, // record past hi
	} {
		if rangeCheck(sk, sv, 15, 30, bad[0], bad[1]) {
			t.Fatalf("bad range %v accepted", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100): children [10,30) and [20,50) overlap → cover [10,50);
	// child [90,120) is clipped to [90,100). Grandchild [12,18) is inside
	// the first child only.
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},
		{parent: 0, start: 90, end: 120},
		{parent: 1, start: 12, end: 18},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin(0, 0)
	inner := tr.begin(0, 1)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Fatalf("parents %d %d", tr.spans[inner].parent, tr.spans[outer].parent)
	}
	var nilTr *tracer
	nilTr.end(nilTr.begin(0, 0)) // the untraced run: no-ops
}

func TestParseProcIO(t *testing.T) {
	const text = "rchar: 100\nwchar: 200\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	p, err := parseProcIO(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p != (procIO{WChar: 200, SyscW: 4, RChar: 100, SyscR: 3}) {
		t.Fatalf("parsed %+v", p)
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\n")); err == nil {
		t.Fatal("truncated file accepted")
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\nwchar: x\nsyscr: 1\nsyscw: 1\n")); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestReadProcIOCountsWrites(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/io is Linux-only")
	}
	a, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "io")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for range 3 {
		if _, err := f.Write(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	if b.WChar-a.WChar < 3000 || b.SyscW-a.SyscW < 3 {
		t.Fatalf("wchar +%d syscw +%d after three 1000-byte writes", b.WChar-a.WChar, b.SyscW-a.SyscW)
	}
}

func TestReadUsage(t *testing.T) {
	u0, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	u1, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(buf)
	if u0.MaxRSSBytes <= 0 || u1.MaxRSSBytes < 64<<20 {
		t.Fatalf("max RSS %d then %d bytes after touching 64 MiB", u0.MaxRSSBytes, u1.MaxRSSBytes)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 %v", q)
	}
	if q := quantile([]float64{1, 2}, 0.5); q != 1.5 {
		t.Fatalf("even median %v", q)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Fatal("quantile reordered its input")
	}
}

func TestWorkloadOrder(t *testing.T) {
	if got := workloadOrder("serve", false); !slices.Equal(got, []string{"serve"}) {
		t.Fatalf("untraced order = %v", got)
	}
	for name := range workloads {
		got := workloadOrder(name, true)
		if len(got) != len(workloads) || got[0] != name {
			t.Fatalf("traced order for %s = %v", name, got)
		}
		for w := range workloads {
			if !slices.Contains(got, w) {
				t.Fatalf("traced order for %s = %v misses %s", name, got, w)
			}
		}
	}
}

func TestNamedWorkloadMetricsWin(t *testing.T) {
	b := &bench{tr: newTracer(), e2e: map[string]metric{}, layer: map[string]metric{}}
	b.setE2E("setup_s", "s", 1)
	b.setLayer("db.open_s", "s", 1)
	b.setLayer("db.open_s", "s", 2) // the named workload's own later figure
	b.brief = true
	b.setE2E("setup_s", "s", 3)
	b.setLayer("db.open_s", "s", 3)
	b.setLayer("perm.speedup_p2", "x", 4)
	if b.e2e["setup_s"].Value != 1 {
		t.Fatalf("a brief workload changed an e2e metric: %v", b.e2e)
	}
	if b.layer["db.open_s"].Value != 2 || b.layer["perm.speedup_p2"].Value != 4 {
		t.Fatalf("per-layer precedence wrong: %v", b.layer)
	}
	b.tr = nil
	b.brief = false
	b.setLayer("store.build_s", "s", 1)
	if _, ok := b.layer["store.build_s"]; ok {
		t.Fatal("an untraced run recorded a per-layer metric")
	}
}
