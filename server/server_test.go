package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"implicitlayout/client"
	"implicitlayout/internal/blockio"
	"implicitlayout/internal/rawfmt"
	"implicitlayout/internal/wire"
	"implicitlayout/server"
	"implicitlayout/store"
)

const valMagic = 0xD1B54A32D192ED03

// startServer brings up a server over db on a loopback listener and
// returns it, its address, and the channel Serve's result lands on.
func startServer(t *testing.T, db *store.DB[uint64, uint64], cfg server.Config) (*server.Server[uint64, uint64], string, chan error) {
	t.Helper()
	s, err := server.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()
	return s, lis.Addr().String(), serveErr
}

// waitServe asserts Serve's clean-shutdown contract: it returns
// ErrClosed, promptly, after Close.
func waitServe(t *testing.T, serveErr chan error) {
	t.Helper()
	select {
	case err := <-serveErr:
		if !errors.Is(err, server.ErrClosed) {
			t.Fatalf("Serve returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestServeRoundTrip drives every op through a real connection.
func TestServeRoundTrip(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := c.Put(ctx, i, i^valMagic); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if v, ok, err := c.Get(ctx, 7); err != nil || !ok || v != 7^valMagic {
		t.Fatalf("Get(7) = %d, %v, %v", v, ok, err)
	}
	if _, ok, err := c.Get(ctx, n+1); err != nil || ok {
		t.Fatalf("Get(missing) = found=%v, %v", ok, err)
	}
	if err := c.Delete(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(ctx, 7); err != nil || ok {
		t.Fatalf("Get(deleted) = found=%v, %v", ok, err)
	}

	keys := []uint64{1, 7, 2, n + 9, 3}
	vals, found, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		wantOK := k < n && k != 7
		if found[i] != wantOK {
			t.Fatalf("GetBatch key %d: found=%v, want %v", k, found[i], wantOK)
		}
		if wantOK && vals[i] != k^valMagic {
			t.Fatalf("GetBatch key %d: val %d", k, vals[i])
		}
	}

	rkeys, rvals, more, err := c.Range(ctx, 10, 19, 0)
	if err != nil || more {
		t.Fatalf("Range: more=%v, %v", more, err)
	}
	if len(rkeys) != 10 {
		t.Fatalf("Range returned %d records, want 10", len(rkeys))
	}
	for i, k := range rkeys {
		if k != uint64(10+i) || rvals[i] != k^valMagic {
			t.Fatalf("Range[%d] = %d → %d", i, k, rvals[i])
		}
	}
	// A limited Range truncates and says so.
	rkeys, _, more, err = c.Range(ctx, 0, n, 5)
	if err != nil || len(rkeys) != 5 || !more {
		t.Fatalf("limited Range: %d records, more=%v, %v", len(rkeys), more, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemRecords == 0 {
		t.Fatalf("Stats over the wire reports an empty memtable: %+v", st)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// TestVersionMismatchRefused speaks a future protocol version at the
// server raw over TCP: the handshake must come back as a refusal frame
// naming the version, mirroring the segment codec's unknown-version
// rule — and the platform contract is held to the same standard.
func TestVersionMismatchRefused(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})

	hello := wire.Hello{Version: wire.Version + 7, Contract: rawfmt.Contract{Endian: "little", KeyKind: 11, KeyWidth: 8, ValKind: 11, ValWidth: 8}}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := blockio.NewWriter(bw).WriteBlock(wire.TagHello, wire.EncodeHello(hello)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := blockio.NewReaderLimit(conn, wire.MaxMessage).Next()
	if err != nil {
		t.Fatal(err)
	}
	if tag != wire.TagRefuse {
		t.Fatalf("future-version hello answered with tag %q, want refusal", tag)
	}
	_, msg, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "version") {
		t.Fatalf("refusal does not name the version: %q", msg)
	}
	conn.Close()

	// The client surfaces a refusal as ErrRefused: here a platform
	// mismatch, dialing with the wrong key width.
	if _, err := client.Dial[uint32, uint64](addr, client.Config{}); !errors.Is(err, client.ErrRefused) {
		t.Fatalf("mismatched key type dial: %v, want ErrRefused", err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// TestPipelinedOutOfOrder floods the pipeline with point Gets behind a
// full-store Range and checks the responses overtake it: the slow scan
// must not be the first call to complete.
func TestPipelinedOutOfOrder(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, i^valMagic); err != nil {
			t.Fatal(err)
		}
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One slow call first, then a pile of fast ones, all pipelined on
	// the single connection before any response is read.
	slow, err := c.Go(&wire.Request[uint64, uint64]{Op: wire.OpRange, Lo: 0, Hi: n, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	const gets = 32
	fast := make([]*client.Call[uint64, uint64], gets)
	for i := range fast {
		if fast[i], err = c.Go(&wire.Request[uint64, uint64]{Op: wire.OpGet, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	order := make(chan int, gets+1)
	watch := func(idx int, done <-chan struct{}) { <-done; order <- idx }
	go watch(-1, slow.Done())
	for i, call := range fast {
		go watch(i, call.Done())
	}
	first := <-order
	if first == -1 {
		t.Fatalf("the full-store Range completed before any of the %d pipelined Gets behind it", gets)
	}
	for i := 0; i < gets; i++ {
		<-order
	}
	if slow.Err != nil || len(slow.Resp.Keys) != n {
		t.Fatalf("Range: %d records, %v", len(slow.Resp.Keys), slow.Err)
	}
	for i, call := range fast {
		if call.Err != nil || !call.Resp.Found || call.Resp.Val != uint64(i)^valMagic {
			t.Fatalf("Get(%d): %+v, %v", i, call.Resp, call.Err)
		}
	}

	if v, ok, err := c.Get(ctx, 5); err != nil || !ok || v != 5^valMagic {
		t.Fatalf("connection unhealthy after pipeline test: %d %v %v", v, ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// TestSnapshotConsistencyUnderWriter hammers the DB with writes through
// one connection while another issues GetBatch over a stable key set:
// every batch must resolve completely — one pinned epoch per batch, no
// key lost to a flush or merge mid-request.
func TestSnapshotConsistencyUnderWriter(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{MemLimit: 256, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	ctx := context.Background()

	const stable = 2000
	keys := make([]uint64, stable)
	writer, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		keys[i] = uint64(i)
		if err := writer.Put(ctx, keys[i], keys[i]^valMagic); err != nil {
			t.Fatal(err)
		}
	}

	// Churn: a writer connection floods disjoint keys, forcing constant
	// freezes, flushes, and merges under the reader's feet.
	churnDone := make(chan error, 1)
	stopChurn := make(chan struct{})
	go func() {
		k := uint64(1) << 32
		for {
			select {
			case <-stopChurn:
				churnDone <- nil
				return
			default:
			}
			if err := writer.Put(ctx, k, k); err != nil {
				churnDone <- err
				return
			}
			k++
		}
	}()

	reader, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		vals, found, err := reader.GetBatch(ctx, keys)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, k := range keys {
			if !found[i] || vals[i] != k^valMagic {
				t.Fatalf("round %d: key %d resolved found=%v val=%d — batch saw a torn epoch",
					round, k, found[i], vals[i])
			}
		}
	}
	close(stopChurn)
	if err := <-churnDone; err != nil {
		t.Fatalf("churn writer: %v", err)
	}

	if err := reader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// TestErrClosedAfterShutdown closes the server under a live client:
// Serve returns ErrClosed, the client's session dies with ErrClosed,
// every later call fails fast, and new dials are refused.
func TestErrClosedAfterShutdown(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Put(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)

	// The client notices the hangup without being asked to write.
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("client never observed the server shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), client.ErrClosed) {
		t.Fatalf("session error = %v, want ErrClosed", c.Err())
	}
	if _, _, err := c.Get(ctx, 1); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Get after shutdown = %v, want ErrClosed", err)
	}
	if _, err := client.Dial[uint64, uint64](addr, client.Config{}); err == nil {
		t.Fatal("Dial succeeded against a closed server")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornConnectionLeaksNothing tears connections down mid-batch —
// requests sent, responses never read, socket slammed shut — and then
// requires the goroutine count to return to its baseline: a dead
// connection releases its read loop, write loop, handlers, and pinned
// epoch with no help from anyone.
func TestTornConnectionLeaksNothing(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{MemLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		if err := db.Put(i, i^valMagic); err != nil {
			t.Fatal(err)
		}
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	baseline := runtime.NumGoroutine()

	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for round := 0; round < 5; round++ {
		c, err := client.Dial[uint64, uint64](addr, client.Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Queue a pile of batched reads and a write, flush them onto the
		// wire, and vanish without reading a single response.
		for j := 0; j < 4; j++ {
			if _, err := c.Go(&wire.Request[uint64, uint64]{Op: wire.OpGetBatch, Keys: keys}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Go(&wire.Request[uint64, uint64]{Op: wire.OpPut, Key: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	waitGoroutines(t, baseline, "after torn connections")

	// The server is unharmed: a fresh connection still gets answers.
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(context.Background(), 3); err != nil || !ok || v != 3^valMagic {
		t.Fatalf("Get after torn connections: %d %v %v", v, ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// waitGoroutines polls until the goroutine count falls back to at most
// base (plus scheduler slack), failing with a dump of the overshoot.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d — connection teardown leaks", when, n, base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledCallFreesItsSlot cancels Dos against a tiny window and
// checks the window recovers: an abandoned call must free its slot when
// its response is eventually discarded, or the pipeline would jam.
func TestCancelledCallFreesItsSlot(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(9, 9^valMagic); err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	c, err := client.Dial[uint64, uint64](addr, client.Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: Do must abandon, not hang
		_, _, err := c.Get(ctx, 9)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Do: %v", err)
		}
	}
	// 20 abandoned calls through a window of 2: slots were recycled.
	if v, ok, err := c.Get(context.Background(), 9); err != nil || !ok || v != 9^valMagic {
		t.Fatalf("Get after cancellations: %d %v %v", v, ok, err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}

// TestCloseDrainsInflight checks graceful shutdown ordering: requests
// already read keep executing, their responses still reach the client,
// and only then does the DB close.
func TestCloseDrainsInflight(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, i^valMagic); err != nil {
			t.Fatal(err)
		}
	}
	s, addr, serveErr := startServer(t, db, server.Config{})
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// A slow full scan, provably read by the server before Close lands:
	// the read loop consumes frames in order, so once the Get queued
	// behind the Range has its answer, the Range has been dispatched.
	slow, err := c.Go(&wire.Request[uint64, uint64]{Op: wire.OpRange, Lo: 0, Hi: n, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(context.Background(), 1); err != nil || !ok {
		t.Fatalf("marker Get: %v %v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)

	select {
	case <-slow.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight Range never completed across Close")
	}
	if slow.Err != nil {
		t.Fatalf("drained Range failed: %v — Close cut an in-flight response off", slow.Err)
	}
	if len(slow.Resp.Keys) != n {
		t.Fatalf("drained Range returned %d records, want %d", len(slow.Resp.Keys), n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageConnectionDropped feeds the server plain garbage and a
// checksummed-but-malformed request; both connections just die, and the
// server keeps serving.
func TestGarbageConnectionDropped(t *testing.T) {
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, 1^valMagic); err != nil {
		t.Fatal(err)
	}
	s, addr, serveErr := startServer(t, db, server.Config{})

	// Not even a frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET / HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered garbage with %d bytes", n)
	}
	conn.Close()

	// A valid handshake, then a request frame whose payload is noise:
	// the checksum passes, the decode fails, the connection drops.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	fw := blockio.NewWriter(bw)
	codec, err := wire.NewCodec[uint64, uint64]()
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteBlock(wire.TagHello, wire.EncodeHello(codec.Hello())); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := blockio.NewReaderLimit(conn, wire.MaxMessage)
	if tag, _, err := br.Next(); err != nil || tag != wire.TagHelloOK {
		t.Fatalf("handshake: tag %q, %v", tag, err)
	}
	if err := fw.WriteBlock(wire.TagRequest, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := br.Next(); err == nil {
		t.Fatal("malformed request got a response instead of a hangup")
	}
	conn.Close()

	// Innocent bystanders are unaffected.
	c, err := client.Dial[uint64, uint64](addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(context.Background(), 1); err != nil || !ok || v != 1^valMagic {
		t.Fatalf("Get after garbage peers: %d %v %v", v, ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, serveErr)
}
