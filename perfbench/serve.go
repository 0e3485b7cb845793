package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"implicitlayout/client"
	"implicitlayout/internal/wire"
	"implicitlayout/server"
	"implicitlayout/store"
)

const (
	servePreload = 1 << 20 // records Put before the server starts
	pipeWindow   = 64      // point requests in flight in the pipelined phase
	clientBatch  = 512     // keys per GetBatch in the traced batched slice
	batchWindow  = 8       // GetBatch requests in flight in that slice
	serialSlice  = 2000    // requests per serial-phase slice (p99 has 20 beyond it)
	pipeSlice    = 20000   // requests per pipelined-phase slice
	openRate     = 10000   // requests/s of the traced open-loop slice
	openOps      = 20000   // requests in the open-loop slice
	codecReps    = 1 << 14 // codec round trips per repetition
)

var (
	spServeSerial = newSpanName("phase.serial")
	spServePipe   = newSpanName("phase.pipelined")
	spServeExtra  = newSpanName("phase.serve_layers")
	spClientGet   = newSpanName("client.Get")
	spClientPut   = newSpanName("client.Put")
	spClientCall  = newSpanName("client.Go")
	spClientBatch = newSpanName("client.GetBatch")
	spViewGet     = newSpanName("db.View.Get")
	spCodec       = newSpanName("wire.codec_get")
	spPreload     = newSpanName("db.Put.preload")
	spServerNew   = newSpanName("server.New")
	spClientDial  = newSpanName("client.Dial")
)

// serveSetup is a running server over a reopened, preloaded durable DB,
// with one client dialed to it.
type serveSetup struct {
	keys   []uint64 // first half preloaded, second half never written
	m      *model
	dir    string
	db     *db
	srv    *server.Server[uint64, uint64]
	lis    *countingListener
	served chan error
	cl     *client.Client[uint64, uint64]
}

func (s *serveSetup) close() error {
	errC := s.cl.Close()
	errS := s.srv.Close() // closes the DB too
	if err := <-s.served; !errors.Is(err, server.ErrClosed) {
		return fmt.Errorf("server.Serve returned %v", err)
	}
	if errS != nil {
		return errS
	}
	return errC
}

func newServeSetup(b *bench, dir string) (*serveSetup, error) {
	s := &serveSetup{keys: universe(b.seed, 2*servePreload), dir: dir}
	s.m = newModel(s.keys)
	c := b.tr.begin(spDBOpen, 0)
	d, err := store.Open[uint64, uint64](dir, store.DBConfig{})
	b.tr.end(c)
	if err != nil {
		return nil, err
	}
	// One span covers the preload's Puts: a span per Put would hold
	// three million spans across the three set-ups.
	c = b.tr.begin(spPreload, 0)
	for i := range servePreload {
		v := valueOf(b.seed, streamServe, i)
		err := d.Put(s.keys[i], v)
		if !b.chk.op(err == nil) {
			b.chk.failf("preload db.Put: %v", err)
		}
		if err == nil {
			s.m.put(uint32(i), v)
		}
	}
	b.tr.end(c)
	c = b.tr.begin(spDBClose, 0)
	t := time.Now()
	err = d.Close()
	b.setLayer("db.close_s", "s", time.Since(t).Seconds())
	b.tr.end(c)
	if err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	b.setE2E("bytes_per_rec", "B/rec", float64(size)/servePreload)
	c = b.tr.begin(spDBOpen, 0)
	t = time.Now()
	s.db, err = store.Open[uint64, uint64](dir, store.DBConfig{})
	b.setLayer("db.open_s", "s", time.Since(t).Seconds())
	b.tr.end(c)
	if err != nil {
		return nil, err
	}
	c = b.tr.begin(spServerNew, 0)
	s.srv, err = server.New(s.db, server.Config{})
	b.tr.end(c)
	if err != nil {
		s.db.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.lis = &countingListener{Listener: l}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.lis) }()
	c = b.tr.begin(spClientDial, 0)
	s.cl, err = client.Dial[uint64, uint64](l.Addr().String(), client.Config{})
	b.tr.end(c)
	if err != nil {
		s.srv.Close()
		<-s.served
		return nil, err
	}
	return s, nil
}

func runServe(b *bench) error {
	n := 0
	s, err := timedSetup(b, func() (*serveSetup, error) {
		n++
		return newServeSetup(b, filepath.Join(b.work, fmt.Sprintf("db%d", n)))
	}, func(s *serveSetup) {
		if err := s.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: discarding a set-up:", err)
		}
		os.RemoveAll(s.dir)
		s.m.free()
	})
	if err != nil {
		return err
	}
	g := newServeGen(b.seed, s)

	ph := newServePhases(b, s, g)
	maxRounds := 1 << 20
	if b.traced() {
		maxRounds = 20 // bounds the in-memory trace
	}
	rounds(true, b.minRounds(5), maxRounds, b.budget, ph.serialOnce, ph.pipeOnce)
	// Requests per second a serial caller completes at the median round
	// trip, in thousands: of Gets, and of Puts.
	b.setE2E("primary_kops_s", "kops/s", 1e6/durQuantile(ph.getRTTs, 0.5))
	b.setE2E("secondary_kops_s", "kops/s", 1e6/durQuantile(ph.putRTTs, 0.5))
	// The serial p99 and the pipelined throughput swing with other
	// tenants' load on a shared host (README.md), so they are reported
	// here and as per-layer figures, not gated.
	if !b.brief {
		b.env["rtt_p50_us"] = durQuantile(ph.rtts, 0.5) / 1e3
		b.env["rtt_p99_us"] = median(ph.p99s) / 1e3
		b.env["serve_kops_s"] = median(ph.rates)
		b.env["rtt_samples"] = len(ph.rtts)
		b.env["rtt_p99_slices"] = len(ph.p99s)
	}
	b.setLayer("serve.rtt_p99_us", "us", median(ph.p99s)/1e3)
	b.setLayer("serve.pipelined_kops_s", "kops/s", median(ph.rates))
	if b.traced() {
		ops := float64(ph.pipeOps)
		b.setLayer("server.writes_per_resp", "writes/resp", float64(ph.io.writes)/ops)
		b.setLayer("server.reads_per_req", "reads/req", float64(ph.io.reads)/ops)
		b.setLayer("runtime.gc_cycles", "1/op", ph.gcs/ops)
		b.setLayer("runtime.allocs_per_op", "allocs/op", ph.allocs/ops)
		b.setLayer("client.get_rtt_p50_us", "us", durQuantile(b.tr.durations(spClientGet, spServeSerial), 0.5)/1e3)
		b.setLayer("client.put_rtt_p50_us", "us", durQuantile(b.tr.durations(spClientPut, spServeSerial), 0.5)/1e3)
		if err := serveLayers(b, s, g); err != nil {
			return err
		}
	}

	// Every acknowledged write must be readable, and nothing else.
	sk, sv := s.m.sorted()
	i, good := 0, true
	s.db.Scan(func(k, v uint64) bool {
		good = i < len(sk) && k == sk[i] && v == sv[i]
		i++
		return good
	})
	if !b.chk.op(good && i == len(sk)) {
		b.chk.failf("db.Scan after serving diverged from the model at record %d of %d", i, len(sk))
	}
	return s.close()
}

// serveGen draws the serve traffic: 90% Get / 10% Put over uniform keys,
// Gets half on preloaded keys and half on never-written ones, Puts
// overwriting preloaded keys with fresh values.
type serveGen struct {
	seed uint64
	r    *rand.Rand
	s    *serveSetup
	puts int
}

func newServeGen(seed uint64, s *serveSetup) *serveGen {
	return &serveGen{seed: seed, r: newRand(seed, streamServe), s: s}
}

// next returns the next request and the universe index it touches. A Put
// is entered into the model as it is drawn: on one connection the server
// applies point requests in send order, so every later Get must see it.
func (g *serveGen) next() (*wire.Request[uint64, uint64], uint32) {
	if g.r.IntN(10) == 0 {
		i := uint32(g.r.IntN(servePreload))
		v := valueOf(g.seed, streamServe, servePreload+g.puts)
		g.puts++
		g.s.m.put(i, v)
		return &wire.Request[uint64, uint64]{Op: wire.OpPut, Key: g.s.keys[i], Val: v}, i
	}
	return g.get()
}

// get draws a Get alone.
func (g *serveGen) get() (*wire.Request[uint64, uint64], uint32) {
	i := uint32(g.r.IntN(servePreload))
	if g.r.IntN(2) == 0 {
		i += servePreload
	}
	return &wire.Request[uint64, uint64]{Op: wire.OpGet, Key: g.s.keys[i]}, i
}

// expect is what a drawn request must get back.
type expect struct {
	op    wire.Op
	key   uint64
	val   uint64
	found bool
}

func (g *serveGen) expect(req *wire.Request[uint64, uint64], i uint32) expect {
	return expect{op: req.Op, key: req.Key, val: g.s.m.val[i], found: g.s.m.live[i]}
}

func (e expect) check(b *bench, resp *wire.Response[uint64, uint64], err error) {
	switch {
	case err != nil:
		b.chk.op(false)
		b.chk.failf("%v %x: %v", e.op, e.key, err)
	case e.op == wire.OpGet:
		if !b.chk.op(resp.Found == e.found && (!e.found || resp.Val == e.val)) {
			b.chk.failf("Get %x = %x,%v want %x,%v", e.key, resp.Val, resp.Found, e.val, e.found)
		}
	default:
		b.chk.op(true)
	}
}

// servePhases holds the two closed loops of the serve workload, run in
// alternating blocks so both sample the whole measurement window, and
// what they have measured so far.
type servePhases struct {
	b       *bench
	s       *serveSetup
	g       *serveGen
	rtts    []time.Duration // every serial round trip
	getRTTs []time.Duration // the serial Gets' round trips
	putRTTs []time.Duration // the serial Puts' round trips
	p99s    []float64       // p99 of each serial block, ns
	rates   []float64       // kops/s of each pipelined block
	pipeOps int
	io      ioCount // server Read/Write calls during pipelined blocks
	allocs  float64 // mallocs during pipelined blocks (traced run)
	gcs     float64 // unforced GC cycles during pipelined blocks (traced run)
	slice   []time.Duration
}

func newServePhases(b *bench, s *serveSetup, g *serveGen) *servePhases {
	return &servePhases{b: b, s: s, g: g, slice: make([]time.Duration, serialSlice)}
}

// serialOnce is one block of the closed loop with one request
// outstanding: each request waits for the previous reply. The run's p50
// is over every sample; its p99 is the median of the blocks' p99s, so one
// disturbed block cannot move it.
func (ph *servePhases) serialOnce(rep int) time.Duration {
	b, s, g := ph.b, ph.s, ph.g
	defer b.endPhase(b.beginPhase(spServeSerial, uint32(rep+1)))
	ctx := context.Background()
	start := time.Now()
	for j := range ph.slice {
		req, i := g.next()
		e := g.expect(req, i)
		name := spClientGet
		if req.Op == wire.OpPut {
			name = spClientPut
		}
		c := b.tr.begin(name, uint32(j))
		t := time.Now()
		var err error
		resp := &wire.Response[uint64, uint64]{}
		if req.Op == wire.OpPut {
			err = s.cl.Put(ctx, req.Key, req.Val)
		} else {
			resp.Val, resp.Found, err = s.cl.Get(ctx, req.Key)
		}
		ph.slice[j] = time.Since(t)
		b.tr.end(c)
		e.check(b, resp, err)
		if rep >= 0 && req.Op == wire.OpPut {
			ph.putRTTs = append(ph.putRTTs, ph.slice[j])
		} else if rep >= 0 {
			ph.getRTTs = append(ph.getRTTs, ph.slice[j])
		}
	}
	if rep >= 0 {
		ph.rtts = append(ph.rtts, ph.slice...)
		ph.p99s = append(ph.p99s, durQuantile(ph.slice, 0.99))
	}
	return time.Since(start)
}

// pipeOnce is one block of the closed loop with pipeWindow point
// requests in flight on the one connection: pipeSlice requests from the
// first send to the last reply, the window drained at the end.
func (ph *servePhases) pipeOnce(rep int) time.Duration {
	b, s, g := ph.b, ph.s, ph.g
	span := b.beginPhase(spServePipe, uint32(rep+1))
	defer b.endPhase(span)
	type slot struct {
		call *client.Call[uint64, uint64]
		e    expect
		t    time.Time
	}
	var ring [pipeWindow]slot
	issue := func(j int) {
		req, i := g.next()
		e := g.expect(req, i)
		t := time.Now()
		call, err := s.cl.Go(req)
		if err != nil {
			e.check(b, nil, err)
			call = nil
		}
		ring[j%pipeWindow] = slot{call, e, t}
	}
	var m0 memSample
	if b.traced() {
		m0 = readMem()
	}
	io0 := s.lis.sample()
	start := time.Now()
	for j := range min(pipeWindow, pipeSlice) {
		issue(j)
	}
	for j := range pipeSlice {
		sl := ring[j%pipeWindow]
		if sl.call != nil {
			<-sl.call.Done()
			b.tr.add(spClientCall, uint32(j), sl.t, time.Now())
			sl.e.check(b, sl.call.Resp, sl.call.Err)
		}
		if j+pipeWindow < pipeSlice {
			issue(j + pipeWindow)
		}
	}
	d := time.Since(start)
	io1 := s.lis.sample()
	if rep < 0 {
		return d
	}
	b.tr.count(span.sp, "server_reads", float64(io1.reads-io0.reads))
	b.tr.count(span.sp, "server_writes", float64(io1.writes-io0.writes))
	ph.rates = append(ph.rates, pipeSlice/d.Seconds()/1e3)
	ph.pipeOps += pipeSlice
	ph.io.reads += io1.reads - io0.reads
	ph.io.writes += io1.writes - io0.writes
	if b.traced() {
		m1 := readMem()
		ph.allocs += float64(m1.Mallocs - m0.Mallocs)
		ph.gcs += unforcedGC(m0, m1)
	}
	return d
}

// serveLayers measures the traced run's per-layer figures: the wire
// codec in memory, the in-process floor under the RTT, pipelined
// GetBatch, and a fixed-rate open-loop slice.
func serveLayers(b *bench, s *serveSetup, g *serveGen) error {
	defer b.endPhase(b.beginPhase(spServeExtra, 0))
	codec, err := wire.NewCodec[uint64, uint64]()
	if err != nil {
		return err
	}
	codecOnce := func(rep int) time.Duration {
		req := &wire.Request[uint64, uint64]{ID: 7, Op: wire.OpGet, Key: s.keys[rep+1]}
		resp := &wire.Response[uint64, uint64]{ID: 7, Op: wire.OpGet, Found: true, Val: uint64(rep)}
		ok := true
		c := b.tr.begin(spCodec, uint32(rep+1))
		t := time.Now()
		for range codecReps {
			p, err1 := codec.EncodeRequest(req)
			q, err2 := codec.DecodeRequest(p)
			p, err3 := codec.EncodeResponse(resp)
			r, err4 := codec.DecodeResponse(p)
			ok = ok && err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
				q.Key == req.Key && r.Val == resp.Val && r.Found
		}
		d := time.Since(t)
		b.tr.end(c)
		if !b.chk.op(ok) {
			b.chk.failf("wire codec round trip of a point Get")
		}
		return d
	}

	// In-process Gets on the serve DB: the floor under the RTT.
	v := s.db.View()
	viewOnce := func(rep int) time.Duration {
		var total time.Duration
		for range serialSlice {
			req, i := g.get()
			e := g.expect(req, i)
			c := b.tr.begin(spViewGet, 0)
			t := time.Now()
			val, ok := v.Get(req.Key)
			total += time.Since(t)
			b.tr.end(c)
			e.check(b, &wire.Response[uint64, uint64]{Val: val, Found: ok}, nil)
		}
		return total
	}
	ts := rounds(true, 5, 5, 0, codecOnce, viewOnce)
	b.setLayer("wire.get_codec_ns", "ns", durQuantile(ts[0], 0.5)/codecReps)
	b.setLayer("db.view_get_ns", "ns", durQuantile(ts[1], 0.5)/serialSlice)

	b.setLayer("client.batched_kkeys_s", "kkeys/s", batched(b, s, g))
	return openLoop(b, s, g)
}

// batched is pipelined GetBatch of clientBatch keys with batchWindow
// requests in flight; it returns thousands of keys per second.
func batched(b *bench, s *serveSetup, g *serveGen) float64 {
	type slot struct {
		call *client.Call[uint64, uint64]
		idx  []uint32
		t    time.Time
	}
	issue := func() slot {
		idx := make([]uint32, clientBatch)
		keys := make([]uint64, clientBatch)
		for i := range idx {
			idx[i] = uint32(g.r.IntN(2 * servePreload))
			keys[i] = s.keys[idx[i]]
		}
		t := time.Now()
		call, err := s.cl.Go(&wire.Request[uint64, uint64]{Op: wire.OpGetBatch, Keys: keys})
		if !b.chk.op(err == nil) {
			b.chk.failf("client GetBatch: %v", err)
		}
		return slot{call, idx, t}
	}
	const rounds = 400
	ring := make([]slot, batchWindow)
	for j := range ring {
		ring[j] = issue()
	}
	start := time.Now()
	for j := 0; j < rounds; j++ {
		sl := ring[j%batchWindow]
		if sl.call == nil {
			continue
		}
		<-sl.call.Done()
		b.tr.add(spClientBatch, uint32(j), sl.t, time.Now())
		ok := sl.call.Err == nil && len(sl.call.Resp.Vals) == clientBatch
		for i, k := range sl.idx {
			ok = ok && s.m.check(k, sl.call.Resp.Vals[i], sl.call.Resp.FoundAll[i])
		}
		if !b.chk.op(ok) {
			b.chk.failf("client GetBatch of %d keys: %v", clientBatch, sl.call.Err)
		}
		if j+batchWindow < rounds {
			ring[j%batchWindow] = issue()
		}
	}
	return rounds * clientBatch / time.Since(start).Seconds() / 1e3
}

// openLoop sends openOps requests at a fixed openRate from one generator
// goroutine while this goroutine collects replies. Latency runs from each
// request's due time, so a stall charges the requests queued behind it;
// the generator's own lateness is reported beside it.
func openLoop(b *bench, s *serveSetup, g *serveGen) error {
	type sent struct {
		call *client.Call[uint64, uint64]
		e    expect
		due  time.Time
		err  error
	}
	// Sized to the whole slice so the generator never waits on the
	// collector: its schedule must not depend on the replies.
	ch := make(chan sent, openOps)
	late := make([]time.Duration, openOps)
	interval := time.Second / openRate
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now().Add(time.Millisecond)
	reqs := make([]*wire.Request[uint64, uint64], openOps)
	exps := make([]expect, openOps)
	for i := range reqs { // drawn up front: the model is not shared with the generator
		req, k := g.next()
		reqs[i], exps[i] = req, g.expect(req, k)
	}
	go func() {
		defer wg.Done()
		defer close(ch)
		for i, req := range reqs {
			due := start.Add(time.Duration(i) * interval)
			if w := time.Until(due); w > 2*time.Millisecond {
				time.Sleep(w - time.Millisecond)
			}
			for time.Now().Before(due) {
				runtime.Gosched() // two vCPUs: spin without starving the server
			}
			late[i] = time.Since(due)
			call, err := s.cl.Go(req)
			ch <- sent{call, exps[i], due, err}
		}
	}()
	var lat []time.Duration
	for x := range ch {
		if x.err != nil {
			x.e.check(b, nil, x.err)
			continue
		}
		<-x.call.Done()
		lat = append(lat, time.Since(x.due))
		x.e.check(b, x.call.Resp, x.call.Err)
	}
	wg.Wait()
	b.setLayer("serve.open_p50_us", "us", durQuantile(lat, 0.5)/1e3)
	b.setLayer("serve.open_p99_us", "us", durQuantile(lat, 0.99)/1e3)
	b.setLayer("serve.gen_late_p99_us", "us", durQuantile(late, 0.99)/1e3)
	return nil
}

// countingListener counts Read and Write calls on the connections the
// server accepts — the syscalls its buffering makes per request.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

type ioCount struct{ reads, writes int64 }

func (l *countingListener) sample() ioCount {
	return ioCount{l.reads.Load(), l.writes.Load()}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}
