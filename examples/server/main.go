// Network serving walkthrough: the DB on a TCP socket. A server wraps
// a writable store.DB and speaks the internal/wire protocol — every
// message one checksummed blockio frame, a version-negotiated
// handshake, raw native-endian bulk arrays (the platform contract raw
// segments record, applied to a socket). The client pipelines: many requests
// ride one connection concurrently, the server answers out of order,
// and a multi-key GetBatch is resolved against a single pinned snapshot
// epoch no matter what the compactor is doing. This walkthrough runs
// server and client in one process over loopback; the two halves only
// ever talk through the socket.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"

	"implicitlayout/client"
	"implicitlayout/internal/wire"
	"implicitlayout/server"
	"implicitlayout/store"
)

func main() {
	// 1. A DB to serve. The wire carries fixed-width keys and values
	//    only (ints, uints, floats): server.New would refuse a string-
	//    valued DB, which segments and logs would carry through gob.
	db, err := store.NewDB[uint64, uint64](store.DBConfig{})
	must(err)
	for i := uint64(0); i < 10_000; i++ {
		must(db.Put(i, i*i))
	}

	// 2. Serve it. Serve blocks, so it runs on its own goroutine; the
	//    returned error is the record of why the listener stopped —
	//    server.ErrClosed after a clean Close.
	srv, err := server.New(db, server.Config{})
	must(err)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	fmt.Println("serving on", lis.Addr())

	// 3. Dial. The handshake sends this end's protocol version and
	//    platform contract; a server that cannot honor them refuses with
	//    the reason instead of serving garbage.
	c, err := client.Dial[uint64, uint64](lis.Addr().String(), client.Config{})
	must(err)
	ctx := context.Background()

	// 4. The blocking API: one call, one round trip.
	v, ok, err := c.Get(ctx, 42)
	must(err)
	fmt.Printf("Get(42) = %d, %v\n", v, ok)
	must(c.Put(ctx, 42, 99)) // nil only after the server's durable ack
	v, _, err = c.Get(ctx, 42)
	must(err)
	fmt.Printf("after Put: Get(42) = %d\n", v)

	// 5. The batched form: one request, many keys, one snapshot epoch —
	//    the server resolves every key against the same run stack, and
	//    the batch feeds the interleaved search kernels whole.
	keys := []uint64{1, 2, 3, 5, 8, 13, 21_000}
	vals, found, err := c.GetBatch(ctx, keys)
	must(err)
	for i, k := range keys {
		fmt.Printf("  batch key %5d: found=%-5v val=%d\n", k, found[i], vals[i])
	}

	// 6. The pipelined async API: queue first, collect after. All eight
	//    requests are on the wire before the first response is read;
	//    responses complete out of order and match back by ID.
	calls := make([]*client.Call[uint64, uint64], 8)
	for i := range calls {
		calls[i], err = c.Go(&wire.Request[uint64, uint64]{Op: wire.OpGet, Key: uint64(i * 100)})
		must(err)
	}
	must(c.Flush())
	for _, call := range calls {
		<-call.Done()
		must(call.Err)
		fmt.Printf("  pipelined Get(%d) = %d\n", call.Req.Key, call.Resp.Val)
	}

	// 7. Ordered reads travel too: a Range is one request, with the
	//    server capping the response and reporting truncation.
	rk, rv, more, err := c.Range(ctx, 10, 15, 0)
	must(err)
	fmt.Printf("Range[10,15]: %d records (more=%v), first %d→%d\n", len(rk), more, rk[0], rv[0])

	// 8. Graceful shutdown: Close stops accepting, drains what is in
	//    flight, then closes the DB. The client sees the hangup as
	//    ErrClosed on every later call.
	must(c.Close())
	must(srv.Close())
	if err := <-serveErr; !errors.Is(err, server.ErrClosed) {
		panic(err)
	}
	fmt.Println("server drained and closed")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
