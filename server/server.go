// Package server serves a writable store.DB over TCP, speaking the
// pipelined binary protocol defined in internal/wire.
//
// Every layer below this one — implicit-layout stores, the LSM DB,
// mmap serving, the interleaved batch kernels — is in-process; this
// package is the wire. Its perf case mirrors the paper's argument one
// level up the hierarchy: just as the array layouts win by keeping many
// independent memory accesses in flight, a pipelined protocol wins by
// keeping many independent requests in flight per connection instead of
// paying one round trip per lookup — and pipelined GetBatch requests
// feed the interleaved ring kernels directly.
//
// Each connection runs one read loop and one write loop. The read loop
// decodes requests and dispatches reads (Get, GetBatch, Range, Stats)
// to a bounded pool of handler goroutines, so responses complete — and
// are written — out of order: a slow full-store Range never holds up
// the point lookups pipelined behind it. Writes (Put, Delete) execute
// inline on the read loop, so writes on one connection apply in the
// order they were sent. Each GetBatch and Range pins one snapshot epoch
// (store.View) for its whole batch: every key in the batch is answered
// by the same run stack, lock-free, no matter how the compactor churns
// mid-request.
//
// Close stops accepting, nudges every connection's read loop off its
// socket, waits for in-flight requests to finish and their responses to
// flush, and then closes the DB — a drain, not an abort. A torn
// connection tears down the same way minus the flush; pinned epochs are
// plain garbage-collected references, so a connection that dies
// mid-batch leaks neither goroutines nor epochs.
package server

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/wire"
	"implicitlayout/store"
)

// ErrClosed is returned by Serve after Close has shut the server down.
var ErrClosed = errors.New("server: closed")

// handshakeTimeout bounds how long a fresh connection may take to send
// its Hello; a peer that connects and says nothing is dropped.
const handshakeTimeout = 10 * time.Second

// Config parameterizes New; zero fields select defaults. The rest is
// fixed: each GetBatch runs serially, since pipelining already keeps
// many requests in flight, and a Range response carries at most the
// request's Limit and wire.MaxBatch records, with More=true at the cap.
type Config struct {
	// MaxInflight is the per-connection bound on concurrently executing
	// requests (default 64). It is the pipelining window the server
	// grants: past it, the read loop stops decoding until a handler
	// finishes, and TCP backpressure does the rest.
	MaxInflight int
}

// Server serves one DB to any number of connections.
type Server[K cmp.Ordered, V any] struct {
	db    *store.DB[K, V]
	codec *wire.Codec[K, V]
	cfg   Config

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // one per live connection
}

// New wraps db in a server. It fails if the key or value type cannot
// cross the wire (the raw format carries fixed-width primitives only,
// by the rule internal/rawfmt states for every raw format).
func New[K cmp.Ordered, V any](db *store.DB[K, V], cfg Config) (*Server[K, V], error) {
	codec, err := wire.NewCodec[K, V]()
	if err != nil {
		return nil, err
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	return &Server[K, V]{
		db:    db,
		codec: codec,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts connections on lis until Close, serving each on its own
// goroutine pair. It returns ErrClosed after a clean shutdown, or the
// accept error that stopped it.
func (s *Server[K, V]) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr ("host:port") and serves — the
// one-call path for main functions.
func (s *Server[K, V]) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the listening address, or nil before Serve.
func (s *Server[K, V]) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

func (s *Server[K, V]) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close shuts the server down gracefully: it stops accepting, kicks
// every connection's read loop off its socket (already-read requests
// keep executing and their responses still flush), waits for every
// connection to drain, and then closes the DB. It is idempotent; the
// error is the DB's Close error.
func (s *Server[K, V]) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		// An expired deadline unblocks the pending read and fails every
		// later one; it does not touch writes, so in-flight responses
		// still reach the peer before the connection closes.
		c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return s.db.Close() // idempotent: a repeat returns the sticky error
}

// handleConn owns one connection: handshake, then the read-loop /
// write-loop pair until the peer hangs up, misbehaves, or Close drains
// us.
func (s *Server[K, V]) handleConn(conn net.Conn) {
	defer conn.Close()
	br := blockio.NewReaderLimit(bufio.NewReaderSize(conn, 64<<10), wire.MaxMessage)
	bw := bufio.NewWriterSize(conn, 64<<10)
	fw := blockio.NewWriter(bw)

	// Handshake: exactly one Hello, checked, answered. A peer whose
	// version or platform we cannot serve gets a refusal frame naming
	// the reason — mirroring the segment codec, an unknown version is
	// refused, never guessed at.
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return
	}
	tag, payload, err := br.Next()
	if err != nil || tag != wire.TagHello {
		return // not speaking the protocol: nothing sensible to say back
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		s.refuse(fw, bw, err)
		return
	}
	if err := s.codec.CheckHello(hello); err != nil {
		s.refuse(fw, bw, err)
		return
	}
	if err := fw.WriteBlock(wire.TagHelloOK, wire.EncodeHello(s.codec.Hello())); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}

	// Session. The write loop serializes pre-rendered response frames;
	// the semaphore bounds concurrently executing requests.
	respCh := make(chan []byte, s.cfg.MaxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeFrames(bw, respCh)
	}()
	sem := make(chan struct{}, s.cfg.MaxInflight)
	var handlers sync.WaitGroup
	for {
		tag, payload, err := br.Next()
		if err != nil || tag != wire.TagRequest {
			break // torn, closed, drained by Close, or a protocol violation
		}
		req, err := s.codec.DecodeRequest(payload)
		if err != nil {
			// The frame passed its checksum but does not parse as a
			// request: the peer is broken, and without a trustworthy ID
			// there is no way to answer just the bad request. Drop the
			// connection; its in-flight work still completes below.
			break
		}
		switch req.Op {
		case wire.OpPut, wire.OpDelete:
			// Inline on the read loop: writes on one connection apply in
			// the order the client sent them.
			respCh <- s.execWrite(req)
		case wire.OpGet:
			// Also inline: a point lookup is microseconds, below the cost
			// of dispatching it, and answering in place keeps a stream of
			// pipelined Gets on one hot goroutine. Out-of-order completion
			// is unharmed — the slow ops are the dispatched ones, and Gets
			// arriving behind them still answer immediately.
			respCh <- s.execRead(req)
		default:
			sem <- struct{}{}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				respCh <- s.execRead(req)
				<-sem
			}()
		}
	}
	handlers.Wait() // every dispatched request finishes and responds
	close(respCh)
	<-writerDone // and the responses are flushed (or the conn is dead)
}

// refuse answers a handshake with a refusal frame; best-effort, the
// connection is closing either way.
func (s *Server[K, V]) refuse(fw *blockio.Writer, bw *bufio.Writer, cause error) {
	if err := fw.WriteBlock(wire.TagRefuse, wire.EncodeError(0, cause.Error())); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
}

// writeFrames is the per-connection write loop: it writes frames as
// they complete, opportunistically coalescing everything already
// queued into one flush — the mirror of the client's pipelined send
// path. After a write error it keeps draining the channel (discarding)
// so no handler ever blocks on a dead connection.
func writeFrames(bw *bufio.Writer, respCh chan []byte) {
	var failed bool
	write := func(frame []byte) {
		if !failed {
			if _, err := bw.Write(frame); err != nil {
				failed = true
			}
		}
	}
	for frame := range respCh {
		write(frame)
		// One yield before draining: give handlers that are mid-enqueue a
		// chance to land their frames in this flush instead of paying a
		// syscall each — cheap on an idle pipe, a big coalescing win on a
		// busy one.
		runtime.Gosched()
	drain:
		for {
			select {
			case more, ok := <-respCh:
				if !ok {
					if !failed {
						bw.Flush()
					}
					return
				}
				write(more)
			default:
				break drain
			}
		}
		if !failed {
			if err := bw.Flush(); err != nil {
				failed = true
			}
		}
	}
	if !failed {
		bw.Flush()
	}
}

// execWrite applies one Put or Delete and renders its response frame.
func (s *Server[K, V]) execWrite(req *wire.Request[K, V]) []byte {
	var err error
	switch req.Op {
	case wire.OpPut:
		err = s.db.Put(req.Key, req.Val)
	case wire.OpDelete:
		err = s.db.Delete(req.Key)
	}
	if err != nil {
		return errFrame(req.ID, err)
	}
	return s.respFrame(req.ID, &wire.Response[K, V]{ID: req.ID, Op: req.Op})
}

// execRead serves one read request and renders its response frame.
// GetBatch and Range pin one snapshot epoch for the whole operation.
func (s *Server[K, V]) execRead(req *wire.Request[K, V]) []byte {
	resp := &wire.Response[K, V]{ID: req.ID, Op: req.Op}
	switch req.Op {
	case wire.OpGet:
		resp.Val, resp.Found = s.db.Get(req.Key)
	case wire.OpGetBatch:
		v := s.db.View()
		resp.Vals, resp.FoundAll = v.GetBatch(req.Keys, 1)
	case wire.OpRange:
		limit := req.Limit
		if limit <= 0 || limit > wire.MaxBatch {
			limit = wire.MaxBatch
		}
		v := s.db.View()
		v.Range(req.Lo, req.Hi, func(k K, val V) bool {
			if len(resp.Keys) == limit {
				resp.More = true
				return false
			}
			resp.Keys = append(resp.Keys, k)
			resp.Vals = append(resp.Vals, val)
			return true
		})
	case wire.OpStats:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.db.Stats()); err != nil {
			return errFrame(req.ID, err)
		}
		resp.Stats = buf.Bytes()
	default:
		return errFrame(req.ID, fmt.Errorf("unhandled op %s", req.Op))
	}
	return s.respFrame(req.ID, resp)
}

// respFrame renders a response, degrading to an error frame if the
// response itself cannot be encoded.
func (s *Server[K, V]) respFrame(id uint64, resp *wire.Response[K, V]) []byte {
	payload, err := s.codec.EncodeResponse(resp)
	if err != nil {
		return errFrame(id, err)
	}
	frame, err := wire.FrameBytes(wire.TagResponse, payload)
	if err != nil {
		return errFrame(id, err)
	}
	return frame
}

// errFrame renders an error response for one request.
func errFrame(id uint64, cause error) []byte {
	frame, err := wire.FrameBytes(wire.TagError, wire.EncodeError(id, cause.Error()))
	if err != nil {
		// Only reachable if the error text itself overflows a frame;
		// answer with a generic one rather than staying silent.
		frame, _ = wire.FrameBytes(wire.TagError, wire.EncodeError(id, "internal error"))
	}
	return frame
}
