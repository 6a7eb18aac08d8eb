// Package server is olapd's network front-end, and the only one: a TCP
// listener speaking the internal/wire protocol, mapping one connection
// to one Session over an embedded database (a *repro.DB). Every
// query passes the admission controller (bounded concurrency, bounded
// wait queue, typed rejections), runs with a per-query context that a
// client Cancel frame or disconnect cancels, and streams its result back
// row-batch-at-a-time. Shutdown drains: the
// listener closes, new queries are refused with wire.CodeShutdown, and
// in-flight queries finish before the caller gets control back to close
// the database.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// writeBufferSize is each connection's write buffer: a response's frames
// collect in it and reach the socket when it fills and when the response
// ends, so a short result is one write and a long one a write per this
// many bytes rather than one per frame.
const writeBufferSize = 64 << 10

// maxConns bounds the connections open at once; past it a new connection
// is closed as soon as it is accepted, before it costs a goroutine or a
// buffer. A constant, not a setting: each open connection holds about
// 70 KiB of buffers, so the cap bounds them at about 35 MiB.
const maxConns = 512

// maxHelloPayload bounds a connection's first frame, which must be a
// Hello (6 bytes of payload): until the handshake, a length prefix is an
// unauthenticated claim and sizes nothing larger.
const maxHelloPayload = 64

// maxInflight bounds the requests one connection may have running or
// queued at once; past it a request is refused with wire.CodeAdmission
// on the frame loop, before it is decoded or given a goroutine. A
// constant, not a setting: client.Conn runs one request plus its Cancel.
const maxInflight = 16

// Config tunes a Server. The zero value listens on a random loopback
// port with capacity-of-the-machine admission limits.
type Config struct {
	// Addr is the listen address; empty selects "127.0.0.1:0".
	Addr string
	// MaxConcurrent caps queries running at once; 0 selects GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth caps queries waiting for a run slot; beyond it queries
	// are rejected with wire.CodeAdmission. 0 selects 2*MaxConcurrent;
	// negative means no waiting at all.
	QueueDepth int
	// ReadTimeout bounds one frame read once its first byte arrived,
	// and the handshake. 0 selects 30s. Idle waits between requests are
	// not bounded — a REPL may sit quiet for minutes.
	ReadTimeout time.Duration
	// WriteTimeout bounds one write to the socket. 0 selects 30s.
	WriteTimeout time.Duration
	// BatchRows is the result rows per RowBatch frame; 0 selects
	// wire.DefaultBatchRows.
	BatchRows int
	// SlowQueryLog, when non-nil, receives structured reports of
	// queries at or above SlowQueryMin, session by session. This and the
	// fields below are session defaults, applied by NewSession.
	SlowQueryLog *slog.Logger
	// SlowQueryMin is the slow-query threshold.
	SlowQueryMin time.Duration
	// Workers is the default intra-query parallel degree applied to each
	// new session; 0 leaves the engine default (GOMAXPROCS), 1 forces
	// sequential execution. Sessions override it with PARALLEL n.
	Workers int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case out.QueueDepth == 0:
		out.QueueDepth = 2 * out.MaxConcurrent
	case out.QueueDepth < 0:
		out.QueueDepth = 0
	}
	if out.ReadTimeout <= 0 {
		out.ReadTimeout = 30 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.BatchRows <= 0 {
		out.BatchRows = wire.DefaultBatchRows
	}
	return out
}

// banner names the server in the HelloAck frame.
const banner = "repro-olapd/1"

// Server serves the wire protocol over TCP for one database.
type Server struct {
	db  *repro.DB
	cfg Config
	lis net.Listener
	adm *admission

	// Lifecycle. draining closes first (Shutdown) and gates new
	// queries; the listener closes with it. connWG tracks connection
	// loops, queryWG in-flight requests (including their result
	// streaming).
	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining chan struct{}
	drained  bool
	connWG   sync.WaitGroup

	// accepted, when set (by tests), runs between Accept and registering
	// the connection.
	accepted func()

	qmu     sync.Mutex
	queryWG sync.WaitGroup

	// Metrics.
	connsActive  atomic.Int64
	connsTotal   *obs.Counter
	connsRefused *obs.Counter
	qAccepted    *obs.Counter
	qQueued      *obs.Counter
	qRejected    *obs.Counter
	qCanceled    *obs.Counter
	qFailed      *obs.Counter
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	flushes      *obs.Counter
	frameLatency *obs.Histogram
}

// New creates a server over db and registers its metrics in the
// database's registry. Call Start to listen.
func New(db *repro.DB, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg.withDefaults(),
		conns:    make(map[*conn]struct{}),
		draining: make(chan struct{}),
	}
	s.adm = newAdmission(s.cfg.MaxConcurrent, s.cfg.QueueDepth)

	reg := db.Registry()
	reg.GaugeFunc("server_connections_active", "client connections currently open",
		func() float64 { return float64(s.connsActive.Load()) })
	reg.GaugeFunc("server_queries_active", "queries currently holding an admission slot",
		func() float64 { return float64(s.adm.running()) })
	reg.GaugeFunc("server_queries_waiting", "queries parked in the admission wait queue",
		func() float64 { return float64(s.adm.waiting()) })
	s.connsTotal = reg.Counter("server_connections_total", "client connections accepted")
	s.connsRefused = reg.Counter("server_connections_refused_total",
		"client connections closed at accept: the server was at its connection cap")
	s.qAccepted = reg.Counter("server_queries_accepted_total", "queries admitted and executed")
	s.qQueued = reg.Counter("server_queries_queued_total", "queries that waited for an admission slot")
	s.qRejected = reg.Counter("server_queries_rejected_total", "queries rejected by admission control")
	s.qCanceled = reg.Counter("server_queries_canceled_total", "queries canceled before completing")
	s.qFailed = reg.Counter("server_queries_failed_total", "queries that failed to parse or execute")
	s.bytesIn = reg.Counter("server_bytes_in_total", "bytes read from clients")
	s.bytesOut = reg.Counter("server_bytes_out_total", "bytes written to clients")
	s.flushes = reg.Counter("server_response_flushes_total",
		"responses completed: each flushed its connection's write buffer once")
	s.frameLatency = reg.Histogram("server_frame_seconds",
		"request frame handling latency (read to final response)", nil)
	return s
}

// Start begins listening and accepting connections.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.connWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed (Shutdown)
		}
		if s.accepted != nil {
			s.accepted()
		}
		c := &conn{srv: s, nc: countedConn{nc, s.bytesIn, s.bytesOut}}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		if !s.register(c) {
			c.cancel()
			nc.Close()
			continue
		}
		s.connsTotal.Inc()
		s.connsActive.Add(1)
		c.sess = NewSession(s.db, &s.cfg)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.connsActive.Add(-1)
		}()
	}
}

// register adds c to the open connections unless the server is draining
// or at maxConns. The drain check and the insert share the critical
// section Shutdown's sweep of conns takes, so a connection is either
// swept or refused: none can register after the sweep and then idle
// with Shutdown waiting on it.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.isDraining():
		return false
	case len(s.conns) >= maxConns:
		s.connsRefused.Inc()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// beginQuery registers one in-flight request, refusing when the server
// is draining (the flag and the WaitGroup are updated under one lock so
// Shutdown's Wait cannot miss a late Add).
func (s *Server) beginQuery() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.isDraining() {
		return false
	}
	s.queryWG.Add(1)
	return true
}

// Shutdown drains the server: the listener closes, new queries are
// refused with wire.CodeShutdown, in-flight queries run to completion
// (their result streams included), then every connection is closed.
// When ctx expires first, remaining queries are canceled hard and
// ctx's error is returned. After Shutdown returns the caller may close
// the database — and its WAL — knowing no query is mid-flight.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	if !s.drained {
		s.drained = true
		close(s.draining)
	}
	s.qmu.Unlock()
	if s.lis != nil {
		s.lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.queryWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Close every connection — canceling any queries that outlived ctx —
	// and wait for the connection loops.
	s.mu.Lock()
	for c := range s.conns {
		c.cancel()
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// countedConn feeds the bytes-in/out counters.
type countedConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// conn is one client connection: its session, its buffered reader, and
// the registry of in-flight request cancel functions Cancel frames probe.
type conn struct {
	srv    *Server
	nc     net.Conn
	sess   *Session
	ctx    context.Context // canceled on disconnect or hard shutdown
	cancel context.CancelFunc

	r *bufio.Reader

	// Frames from concurrent request goroutines are serialized by wmu and
	// collect in w, which writes to the socket through socketWriter. hdr
	// is the scratch a frame's header and request ID are assembled in.
	wmu sync.Mutex
	w   *bufio.Writer
	hdr [9]byte

	// inflight holds the requests that run on their own goroutine. Only
	// the frame loop adds entries, so its size check needs no more than
	// imu; each request removes its own.
	imu      sync.Mutex
	inflight map[uint32]context.CancelFunc
	qwg      sync.WaitGroup
}

// socketWriter is what a connection's write buffer empties into. Every
// write to the socket gets its own deadline, so a peer that stops reading
// stalls a response for WriteTimeout at most however many writes the
// response takes. A failed or timed-out write may have left part of a
// frame on the stream, so it closes the connection: the frame loop's
// read fails, everything in flight is canceled, and later writers fail
// at once (the buffer keeps the error) instead of each waiting out the
// deadline against a peer that is gone.
type socketWriter struct{ c *conn }

func (w socketWriter) Write(p []byte) (int, error) {
	nc := w.c.nc
	nc.SetWriteDeadline(time.Now().Add(w.c.srv.cfg.WriteTimeout))
	n, err := nc.Write(p)
	if err != nil {
		nc.Close()
	}
	return n, err
}

// putFrame buffers one frame and, when it ends a response, flushes. A
// RowBatch payload comes without its leading request ID — it is a batch
// of a row image, shared by every request for that result — and gets id
// stamped in front of it here; every other payload carries its own.
func (c *conn) putFrame(t wire.FrameType, id uint32, payload []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, head := len(payload), c.hdr[:5]
	if t == wire.FrameRowBatch {
		n, head = n+4, c.hdr[:9]
		binary.BigEndian.PutUint32(c.hdr[5:], id)
	}
	if n > wire.MaxPayload {
		return fmt.Errorf("server: %s frame payload %d exceeds %d bytes", t, n, wire.MaxPayload)
	}
	binary.BigEndian.PutUint32(c.hdr[:], uint32(n))
	c.hdr[4] = byte(t)
	c.w.Write(head)
	_, err := c.w.Write(payload) // the buffer's error is sticky: this reports the header's too
	if flush && err == nil {
		c.srv.flushes.Inc()
		err = c.w.Flush()
	}
	return err
}

// writeFrame sends a frame that ends a response — for all but a query's
// result stream, the whole response.
func (c *conn) writeFrame(t wire.FrameType, payload []byte) error {
	return c.putFrame(t, 0, payload, true)
}

func (c *conn) writeError(id uint32, code wire.ErrorCode, msg, queryID string) {
	c.writeFrame(wire.FrameError, wire.Encode(&wire.ErrorFrame{ID: id, Code: code, Message: msg, QueryID: queryID}))
}

// fail answers request id with err as a typed Error frame and reports
// the code it chose: canceled when the request's context is done, a
// *client.Error's own code (a session's parse or option rejection),
// CodeExec otherwise. queryID,
// when known, lets the client join the error against /debug/queries and
// the slow-query log.
func (c *conn) fail(ctx context.Context, id uint32, queryID string, err error) wire.ErrorCode {
	code, msg := wire.CodeExec, err.Error()
	var ce *client.Error
	switch {
	case ctx.Err() != nil:
		code, msg = wire.CodeCanceled, "canceled"
	case errors.As(err, &ce):
		code = wire.ErrorCode(ce.Code)
		if err == error(ce) {
			msg = ce.Message // the code travels in its own field
		}
	}
	c.writeError(id, code, msg, queryID)
	return code
}

// reply answers request id with the frame, or with fail when the
// session returned an error.
func (c *conn) reply(ctx context.Context, id uint32, err error, t wire.FrameType, f wire.Frame) {
	if err != nil {
		c.fail(ctx, id, "", err)
		return
	}
	c.writeFrame(t, wire.Encode(f))
}

// readFrame reads one frame into a pooled buffer the caller must
// Release once the payload is decoded. Waiting for the first header
// byte is unbounded (idle REPLs are fine); once a frame starts, the
// rest must arrive within ReadTimeout so a stalled peer cannot pin the
// loop.
func (c *conn) readFrame() (wire.FrameType, *wire.Buffer, error) {
	c.nc.SetReadDeadline(time.Time{})
	if _, err := c.r.Peek(1); err != nil {
		return 0, nil, err
	}
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
	return wire.ReadFrameBuffer(c.r)
}

// handshake reads the Hello frame, under the read timeout from the
// first byte, and answers it. The peer is not yet known to speak the
// protocol, so a first frame longer than maxHelloPayload is refused on
// its header alone.
func (c *conn) handshake() bool {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
	hdr, err := c.r.Peek(5)
	if err != nil {
		return false
	}
	if n := binary.BigEndian.Uint32(hdr); n > maxHelloPayload {
		c.writeError(0, wire.CodeProtocol, fmt.Sprintf("first frame claims %d bytes; a hello has at most %d", n, maxHelloPayload), "")
		return false
	}
	t, fb, err := wire.ReadFrameBuffer(c.r)
	if err != nil {
		return false
	}
	defer fb.Release()
	if t != wire.FrameHello {
		c.writeError(0, wire.CodeProtocol, fmt.Sprintf("expected hello, got %s", t), "")
		return false
	}
	var hello wire.Hello
	if err := wire.Decode(fb.Bytes(), &hello); err != nil {
		c.writeError(0, wire.CodeProtocol, err.Error(), "")
		return false
	}
	if hello.Version != wire.Version {
		c.writeError(0, wire.CodeProtocol,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, wire.Version), "")
		return false
	}
	ack := &wire.HelloAck{Version: wire.Version, Server: banner}
	return c.writeFrame(wire.FrameHelloAck, wire.Encode(ack)) == nil
}

func (c *conn) serve() {
	defer c.nc.Close()
	defer c.cancel() // disconnect cancels every in-flight request
	c.r = bufio.NewReader(c.nc)
	c.w = bufio.NewWriterSize(socketWriter{c}, writeBufferSize)
	c.inflight = make(map[uint32]context.CancelFunc)
	if !c.handshake() {
		return
	}
	for {
		t, fb, err := c.readFrame()
		if err != nil {
			break
		}
		// Both paths decode the payload before they return and the decoded
		// structs hold copies, so the pooled buffer is released here — the
		// spawned request goroutines never see it.
		ok := c.dispatch(t, fb.Bytes(), time.Now())
		fb.Release()
		if !ok {
			break
		}
	}
	c.cancel()
	c.qwg.Wait() // let request goroutines finish their final writes
}

// dispatch handles one request frame and reports whether the connection
// survives it; a frame that is malformed or of an unknown type ends it.
// Requests that may block get a goroutine (spawn); Cancel, Ping and the
// metadata requests — options, delta stats, profiles — are answered here
// on the frame loop, without admission.
func (c *conn) dispatch(t wire.FrameType, p []byte, start time.Time) bool {
	id := wire.RequestID(p)
	var run func(context.Context) // set by the requests that may block
	var err error
	switch t {
	case wire.FrameQuery, wire.FrameExplain, wire.FrameIngest, wire.FrameCompact:
		// Refused before the payload is decoded, so a peer that pipelines
		// without reading cannot park one goroutine and one decoded
		// statement per frame behind the write lock.
		if !c.maySpawn(id) {
			c.srv.frameLatency.ObserveDuration(time.Since(start))
			return true
		}
	}
	switch t {
	case wire.FrameQuery:
		q := new(wire.Query)
		err = wire.Decode(p, q)
		run = func(ctx context.Context) { c.handleQuery(ctx, q) }
	case wire.FrameExplain:
		ex := new(wire.Explain)
		err = wire.Decode(p, ex)
		run = func(ctx context.Context) { c.handleExplain(ctx, ex) }
	case wire.FrameIngest:
		// Ingest and Compact skip query admission — writes land in the
		// delta store, not the scan pipeline — but like every spawned
		// request they are drain-tracked, and a Cancel frame or disconnect
		// releases an ingest's backpressure wait.
		ing := new(wire.Ingest)
		err = wire.Decode(p, ing)
		run = func(ctx context.Context) {
			c.reply(ctx, id, c.sess.Ingest(ctx, ing.Cells),
				wire.FrameIngestAck, &wire.IngestAck{ID: id, Cells: uint32(len(ing.Cells))})
		}
	case wire.FrameCompact:
		err = wire.Decode(p, &wire.CompactReq{})
		run = func(ctx context.Context) {
			elapsed, cerr := c.sess.Compact(ctx)
			c.reply(ctx, id, cerr, wire.FrameCompactAck, &wire.CompactAck{ID: id, ElapsedNS: elapsed.Nanoseconds()})
		}
	case wire.FramePing:
		c.writeFrame(wire.FramePong, nil)
	case wire.FrameCancel:
		if err = wire.Decode(p, &wire.Cancel{}); err == nil {
			c.imu.Lock()
			if cancel, ok := c.inflight[id]; ok {
				cancel()
			}
			c.imu.Unlock()
		}
	case wire.FrameSetOption:
		var so wire.SetOption
		if err = wire.Decode(p, &so); err == nil {
			// An unknown name or value is a per-request error, not a
			// protocol violation — the connection stays up.
			c.reply(c.ctx, id, c.sess.SetOption(c.ctx, so.Name, so.Value), wire.FrameOptionAck, &wire.OptionAck{ID: id})
		}
	case wire.FrameGetProfiles:
		var gp wire.GetProfiles
		if err = wire.Decode(p, &gp); err == nil {
			js, serr := c.sess.Profiles(c.ctx, gp.QueryID, int(gp.Limit))
			c.reply(c.ctx, id, serr, wire.FrameProfilesResult, &wire.ProfilesResult{ID: id, JSON: js})
		}
	case wire.FrameDeltaStats:
		if err = wire.Decode(p, &wire.DeltaStatsReq{}); err == nil {
			st, serr := c.sess.DeltaStats(c.ctx)
			c.reply(c.ctx, id, serr, wire.FrameDeltaStatsResult, &wire.DeltaStatsResult{
				ID: id, Cells: st.Cells, Bytes: st.Bytes, DirtyChunks: st.DirtyChunks,
				TouchedChunks: st.TouchedChunks, BudgetBytes: st.BudgetBytes, Compactions: st.Compactions,
			})
		}
	default:
		id, err = 0, fmt.Errorf("unexpected %s frame", t)
	}
	switch {
	case err != nil:
		c.writeError(id, wire.CodeProtocol, err.Error(), "")
	case run != nil:
		c.spawn(id, run, start)
		return true // spawn observes the latency when the request ends
	}
	c.srv.frameLatency.ObserveDuration(time.Since(start))
	return err == nil
}

// maySpawn reports whether request id may start, answering it here when
// not: the connection is at maxInflight (counted by ID, so an ID already
// in flight is refused too rather than hidden behind its twin).
func (c *conn) maySpawn(id uint32) bool {
	c.imu.Lock()
	n := len(c.inflight)
	_, dup := c.inflight[id]
	c.imu.Unlock()
	switch {
	case n >= maxInflight:
		c.srv.qRejected.Inc()
		c.writeError(id, wire.CodeAdmission,
			fmt.Sprintf("connection already has %d requests in flight", maxInflight), "")
	case dup:
		c.writeError(id, wire.CodeProtocol, fmt.Sprintf("request id %d is already in flight", id), "")
	}
	return n < maxInflight && !dup
}

// spawn runs a request on its own goroutine, registered with the drain
// tracker (Shutdown waits for it, result stream included) and under a
// context that a Cancel frame for id, a disconnect, or a hard shutdown
// cancels. Both registrations happen here, on the frame loop: a drain
// that has begun refuses the request, and a Cancel frame that follows it
// immediately cannot miss it.
func (c *conn) spawn(id uint32, run func(context.Context), start time.Time) {
	if !c.srv.beginQuery() {
		c.writeError(id, wire.CodeShutdown, "server is draining", "")
		c.srv.frameLatency.ObserveDuration(time.Since(start))
		return
	}
	ctx, cancel := context.WithCancel(c.ctx)
	c.imu.Lock()
	c.inflight[id] = cancel
	c.imu.Unlock()
	c.qwg.Add(1)
	go func() {
		defer c.qwg.Done()
		defer c.srv.queryWG.Done()
		run(ctx)
		c.imu.Lock()
		delete(c.inflight, id)
		c.imu.Unlock()
		cancel()
		c.srv.frameLatency.ObserveDuration(time.Since(start))
	}()
}

// admit takes an admission slot for one request, reporting how long it
// queued and whether the caller may proceed (it then owns the slot). On
// refusal the typed error frame has already been written.
func (c *conn) admit(ctx context.Context, id uint32) (time.Duration, bool) {
	start := time.Now()
	err := c.srv.adm.acquire(ctx, c.srv.draining, func() { c.srv.qQueued.Inc() })
	switch {
	case err == nil:
		c.srv.qAccepted.Inc()
		return time.Since(start), true
	case errors.Is(err, ErrRejected):
		c.srv.qRejected.Inc()
		c.writeError(id, wire.CodeAdmission, fmt.Sprintf("server at %d concurrent queries with %d queued",
			c.srv.cfg.MaxConcurrent, c.srv.cfg.QueueDepth), "")
	case errors.Is(err, ErrDraining):
		c.writeError(id, wire.CodeShutdown, "server is draining", "")
	default: // context canceled while queued
		c.srv.qCanceled.Inc()
		c.writeError(id, wire.CodeCanceled, "canceled while queued", "")
	}
	return 0, false
}

// failQuery is fail plus the canceled/failed query counters.
func (c *conn) failQuery(ctx context.Context, id uint32, queryID string, err error) {
	if c.fail(ctx, id, queryID, err) == wire.CodeCanceled {
		c.srv.qCanceled.Inc()
	} else {
		c.srv.qFailed.Inc()
	}
}

// handleQuery executes one Query frame end to end: admission, the
// session call under the per-query context, and the result stream
// (header, row batches, done).
func (c *conn) handleQuery(ctx context.Context, q *wire.Query) {
	if q.Engine > wire.Bitmap {
		c.writeError(q.ID, wire.CodeProtocol, fmt.Sprintf("unknown engine %d", uint8(q.Engine)), "")
		return
	}
	// The query's identity for tracing and the flight recorder:
	// client-minted when the frame carries one, server-minted otherwise.
	qid := q.TraceID
	if qid == "" {
		qid = obs.NewQueryID()
	}
	wait, ok := c.admit(ctx, q.ID)
	if !ok {
		return
	}
	// Hand the identity and the measured admission wait to the session:
	// an executor grafts the wait into the span tree and stamps the ID
	// through the trace, slow-query log, flight recorder, and pprof
	// labels.
	ctx = obs.ContextWithQueryTag(ctx, &obs.QueryTag{ID: qid, AdmissionWait: wait})
	res, err := c.sess.Query(ctx, q.SQL, client.Engine(q.Engine))
	// The result is fully materialised, so the run slot goes back before
	// the first frame: a client that stops reading holds its connection
	// and a drain entry for up to WriteTimeout, never a slot.
	c.srv.adm.release()
	if err != nil {
		c.failQuery(ctx, q.ID, qid, err)
		return
	}

	hdr := &wire.ResultHeader{ID: q.ID, Plan: res.Plan, Engine: wire.Engine(res.Engine),
		GroupAttrs: res.GroupAttrs, Aggs: res.Aggs}
	if c.putFrame(wire.FrameResultHeader, 0, wire.Encode(hdr), false) != nil {
		return
	}
	// The row batches come out of the session's image of them.
	for img := res.Frames; len(img) > 0; {
		// Cancellation between batches: a canceled client stops the
		// stream without waiting for the remaining rows.
		if ctx.Err() != nil {
			c.srv.qCanceled.Inc()
			c.writeError(q.ID, wire.CodeCanceled, "query canceled mid-stream", qid)
			return
		}
		var body []byte
		body, img = img.Next()
		if c.putFrame(wire.FrameRowBatch, q.ID, body, false) != nil {
			return
		}
	}
	done := &wire.ResultDone{ID: q.ID, ElapsedNS: res.Elapsed.Nanoseconds(), Rows: int64(res.NumRows),
		QueryID: res.QueryID, Trace: res.Trace}
	c.writeFrame(wire.FrameResultDone, wire.Encode(done))
}

// handleExplain answers an Explain frame with the session's rendered
// explanation; it is admitted like a query because EXPLAIN ANALYZE runs
// one.
func (c *conn) handleExplain(ctx context.Context, ex *wire.Explain) {
	if ex.Engine > wire.Bitmap {
		c.writeError(ex.ID, wire.CodeProtocol, fmt.Sprintf("unknown engine %d", uint8(ex.Engine)), "")
		return
	}
	if _, ok := c.admit(ctx, ex.ID); !ok {
		return
	}
	expl, err := c.sess.Explain(ctx, ex.SQL, client.Engine(ex.Engine))
	c.srv.adm.release()
	if err != nil {
		c.failQuery(ctx, ex.ID, "", err)
		return
	}
	out := &wire.ExplainResult{ID: ex.ID, Chosen: expl.Chosen, Engine: wire.Engine(expl.Engine), Text: expl.Text}
	if !strings.HasSuffix(out.Text, "\n") {
		out.Text += "\n"
	}
	c.writeFrame(wire.FrameExplainResult, wire.Encode(out))
}
