// Package client is the Go client for olapd's wire protocol. A Conn is
// one TCP connection running one query at a time; a program running
// queries concurrently dials one Conn per goroutine. Cancellation is
// first-class: canceling the context.Context passed to Query sends a
// Cancel frame to the server — stopping the operator loop there, not
// just the local read — and the connection stays usable afterward.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Engine selects the server-side evaluation strategy for a query.
type Engine uint8

// Engines, mirroring the server's planner modes.
const (
	Auto     Engine = Engine(wire.Auto)
	Array    Engine = Engine(wire.Array)
	StarJoin Engine = Engine(wire.StarJoin)
	Bitmap   Engine = Engine(wire.Bitmap)
)

// String implements fmt.Stringer.
func (e Engine) String() string { return wire.Engine(e).String() }

// ParseEngine maps an engine name ("auto", "array", "starjoin",
// "bitmap") to its constant.
func ParseEngine(name string) (Engine, error) {
	we, err := wire.ParseEngine(name)
	return Engine(we), err
}

// ErrorCode classifies a server-side failure.
type ErrorCode uint16

// Error codes, mirroring the wire protocol's.
const (
	CodeProtocol  = ErrorCode(wire.CodeProtocol)
	CodeParse     = ErrorCode(wire.CodeParse)
	CodeAdmission = ErrorCode(wire.CodeAdmission)
	CodeCanceled  = ErrorCode(wire.CodeCanceled)
	CodeExec      = ErrorCode(wire.CodeExec)
	CodeShutdown  = ErrorCode(wire.CodeShutdown)
	// CodeUnsupported: the server's backend does not have the operation.
	CodeUnsupported = ErrorCode(wire.CodeUnsupported)
)

// String implements fmt.Stringer.
func (c ErrorCode) String() string { return wire.ErrorCode(c).String() }

// Error is a typed failure reported by the server. Admission rejections
// carry CodeAdmission, bad SQL CodeParse, a draining server
// CodeShutdown — callers branch with IsCode.
type Error struct {
	Code    ErrorCode
	Message string
	// QueryID names the failed execution when the server knew it — the
	// handle for /debug/queries and the server's slow-query log.
	QueryID string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("olapd: %s: %s", e.Code, e.Message) }

// IsCode reports whether err is (or wraps) a server Error with code.
func IsCode(err error, code ErrorCode) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == code
}

// Row is one aggregated result row: the group labels plus the full
// aggregate state (Groups, Sum, Count, Min, Max). It is the protocol's
// own row type, so batches cross between the wire and the caller
// without a copy.
type Row = wire.Row

// Result is a completed query's result set with its plan provenance.
type Result struct {
	Plan       string
	Engine     Engine
	GroupAttrs []string
	Aggs       []uint8
	Rows       []Row
	// Elapsed is the server-side execution time (not round-trip).
	Elapsed time.Duration
	// QueryID is the query's identity: minted client-side before the
	// frame is sent, echoed back by the server, and usable to look the
	// execution up in /debug/queries, Profiles, and the server's
	// slow-query log.
	QueryID string
	// Trace is the rendered span tree, filled only when the session has
	// TRACE on (SetTrace).
	Trace string
}

// Explanation is the server's rendered planning decision for a query;
// for EXPLAIN ANALYZE the text includes per-operator actuals.
type Explanation struct {
	Chosen string
	Engine Engine
	Text   string
}

// Config tunes a Conn. The zero value uses sane defaults.
type Config struct {
	// DialTimeout bounds connection + handshake (and pings). 0 selects
	// 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write. 0 selects 10s.
	WriteTimeout time.Duration
	// CancelGrace bounds how long a canceled query waits for the
	// server's acknowledgement before the connection is declared
	// broken. 0 selects 5s.
	CancelGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 5 * time.Second
	}
	return c
}

// Conn is one protocol connection. It runs one request at a time and is
// not safe for concurrent use: dial one per goroutine.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	cfg    Config
	wmu    sync.Mutex // Cancel frames interleave with request writes
	nextID uint32
	broken atomic.Bool
	server string
}

// readBufferSize matches what the server writes at a time, so a long
// result stream costs a read per that many bytes, not two per row batch.
const readBufferSize = 64 << 10

// Dial connects and performs the protocol handshake.
func Dial(addr string, cfg Config) (*Conn, error) {
	cfg = cfg.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, readBufferSize), cfg: cfg}
	nc.SetDeadline(time.Now().Add(cfg.DialTimeout))
	if err := c.writeFrame(wire.FrameHello, (&wire.Hello{Version: wire.Version}).Encode()); err != nil {
		nc.Close()
		return nil, err
	}
	t, fb, err := wire.ReadFrameBuffer(c.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch t {
	case wire.FrameHelloAck:
		ack, err := wire.DecodeHelloAck(fb.Bytes())
		fb.Release()
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.server = ack.Server
	case wire.FrameError:
		err := c.serverError(context.Background(), fb.Bytes())
		fb.Release()
		nc.Close()
		return nil, err
	default:
		fb.Release()
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %s frame", t)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// Server reports the server banner from the handshake.
func (c *Conn) Server() string { return c.server }

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

func (c *Conn) writeFrame(t wire.FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	err := wire.WriteFrame(c.nc, t, payload)
	if err != nil {
		c.broken.Store(true)
	}
	return err
}

// readFrame reads one frame into a pooled buffer under whatever read
// deadline is armed; a failure (including a deadline hit) breaks the
// connection, since the stream may be desynchronized mid-frame. The
// caller must Release the buffer once the payload is decoded.
func (c *Conn) readFrame() (wire.FrameType, *wire.Buffer, error) {
	t, fb, err := wire.ReadFrameBuffer(c.br)
	if err != nil {
		c.broken.Store(true)
	}
	return t, fb, err
}

// Ping round-trips a Ping frame; an error means the connection is dead.
func (c *Conn) Ping() error {
	if c.broken.Load() {
		return errBroken
	}
	c.nc.SetReadDeadline(time.Now().Add(c.cfg.DialTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	if err := c.writeFrame(wire.FramePing, nil); err != nil {
		return err
	}
	t, fb, err := c.readFrame()
	if err != nil {
		return err
	}
	fb.Release() // pong carries no payload
	if t != wire.FramePong {
		c.broken.Store(true)
		return fmt.Errorf("client: expected pong, got %s", t)
	}
	return nil
}

// errBroken is returned by every request on a connection whose stream
// can no longer be trusted.
var errBroken = errors.New("client: connection is broken")

// nextRequest allots the next request ID, refusing on a broken connection
// or a context that is already done.
func (c *Conn) nextRequest(ctx context.Context) (uint32, error) {
	if c.broken.Load() {
		return 0, errBroken
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c.nextID++
	return c.nextID, nil
}

// serverError turns an Error frame's payload into the typed *Error. A
// cancellation the caller itself asked for surfaces as ctx's error.
func (c *Conn) serverError(ctx context.Context, payload []byte) error {
	ef, err := wire.DecodeError(payload)
	if err != nil {
		c.broken.Store(true)
		return err
	}
	if ef.Code == wire.CodeCanceled && ctx.Err() != nil {
		return ctx.Err()
	}
	return &Error{Code: ErrorCode(ef.Code), Message: ef.Message, QueryID: ef.QueryID}
}

// roundTrip sends one request frame and reads its one reply: a frame of
// type want carrying the request's ID is handed to decode, an Error
// frame becomes the typed *Error, and anything else breaks the
// connection. A cancelable request is one the server may block on: ctx
// firing sends a Cancel frame (see watchCancel). The others are
// metadata reads answered on the server's frame loop and run under the
// dial timeout instead.
func (c *Conn) roundTrip(ctx context.Context, cancelable bool, reqType wire.FrameType,
	encode func(id uint32) []byte, want wire.FrameType, decode func(payload []byte) error) error {
	id, err := c.nextRequest(ctx)
	if err != nil {
		return err
	}
	if !cancelable {
		c.nc.SetReadDeadline(time.Now().Add(c.cfg.DialTimeout))
		defer c.nc.SetReadDeadline(time.Time{})
	}
	if err := c.writeFrame(reqType, encode(id)); err != nil {
		return err
	}
	if cancelable {
		stop := c.watchCancel(ctx, id)
		defer stop()
	}
	t, fb, err := c.readFrame()
	if err != nil {
		if ctx.Err() != nil { // grace expired with no acknowledgement
			return ctx.Err()
		}
		return err
	}
	defer fb.Release()
	switch t {
	case want:
		if got := wire.RequestID(fb.Bytes()); got != id {
			err = fmt.Errorf("answers request %d, not %d", got, id)
		} else {
			err = decode(fb.Bytes())
		}
		if err != nil {
			c.broken.Store(true)
			return fmt.Errorf("client: bad %s frame: %v", t, err)
		}
		return nil
	case wire.FrameError:
		return c.serverError(ctx, fb.Bytes())
	default:
		c.broken.Store(true)
		return fmt.Errorf("client: unexpected %s frame", t)
	}
}

// SetOption flips a per-session server switch by name; the options
// today are "CACHE" ("on"/"off"), "PARALLEL" (a worker count) and
// "TRACE" ("on"/"off"). The round-trip runs under the dial timeout (or
// ctx, whichever fires first).
func (c *Conn) SetOption(ctx context.Context, name, value string) error {
	return c.roundTrip(ctx, false, wire.FrameSetOption,
		func(id uint32) []byte { return (&wire.SetOption{ID: id, Name: name, Value: value}).Encode() },
		wire.FrameOptionAck, func(p []byte) error {
			_, err := wire.DecodeOptionAck(p)
			return err
		})
}

// SetCache turns this connection's server-side query-cache
// participation on or off (the CACHE session option).
func (c *Conn) SetCache(ctx context.Context, on bool) error {
	v := "on"
	if !on {
		v = "off"
	}
	return c.SetOption(ctx, "CACHE", v)
}

// SetParallel sets this connection's server-side intra-query parallel
// degree (the PARALLEL session option): the number of workers one
// query's operator loops may fan out to. 0 resets to the server's
// default; 1 forces sequential execution.
func (c *Conn) SetParallel(ctx context.Context, workers int) error {
	if workers < 0 {
		return fmt.Errorf("client: negative parallel degree %d", workers)
	}
	return c.SetOption(ctx, "PARALLEL", strconv.Itoa(workers))
}

// SetTrace turns this connection's server-side tracing on or off (the
// TRACE session option). On, every query runs with the full
// fine-grained span tree — sampling bypassed — and Result.Trace carries
// the rendered tree back.
func (c *Conn) SetTrace(ctx context.Context, on bool) error {
	v := "on"
	if !on {
		v = "off"
	}
	return c.SetOption(ctx, "TRACE", v)
}

// Profiles reads the server's flight recorder and returns the raw JSON.
// With queryID set it is that one query's profile (an exec error when
// the record has aged out); otherwise it is {"recent": [...],
// "slowest": [...]} with recent capped at limit (0 means the whole
// ring). The round-trip runs under the dial timeout (or ctx, whichever
// fires first).
func (c *Conn) Profiles(ctx context.Context, queryID string, limit int) (string, error) {
	if limit < 0 {
		limit = 0
	}
	var out string
	err := c.roundTrip(ctx, false, wire.FrameGetProfiles,
		func(id uint32) []byte {
			return (&wire.GetProfiles{ID: id, QueryID: queryID, Limit: uint32(limit)}).Encode()
		},
		wire.FrameProfilesResult, func(p []byte) error {
			pr, err := wire.DecodeProfilesResult(p)
			if err == nil {
				out = pr.JSON
			}
			return err
		})
	return out, err
}

// IngestCell is one cell state for Ingest, addressed by dimension keys
// (Keys): set the cell's measure to Value, or Delete it. States are
// absolute, so resending a batch after an ambiguous failure is
// idempotent. Like Row it is the protocol's own type.
type IngestCell = wire.IngestCell

// DeltaStats is the server's delta-store snapshot: the cells and bytes
// awaiting compaction, the dirty/touched chunk counts, the backpressure
// budget, and the lifetime compaction count.
type DeltaStats struct {
	Cells         int64
	Bytes         int64
	DirtyChunks   int64
	TouchedChunks int64
	BudgetBytes   int64
	Compactions   int64
}

// Ingest applies a batch of cell states through the server's HTAP delta
// path: the batch is WAL-logged and visible to queries on arrival,
// folded into the chunk store by a later compaction. The call may block
// while the server's delta store is over budget; canceling ctx sends a
// Cancel frame that releases the wait server-side.
func (c *Conn) Ingest(ctx context.Context, cells []IngestCell) error {
	return c.roundTrip(ctx, true, wire.FrameIngest,
		func(id uint32) []byte { return (&wire.Ingest{ID: id, Cells: cells}).Encode() },
		wire.FrameIngestAck, func(p []byte) error {
			_, err := wire.DecodeIngestAck(p)
			return err
		})
}

// DeltaStats reads the server's delta-store counters. The round-trip
// runs under the dial timeout (or ctx, whichever fires first).
func (c *Conn) DeltaStats(ctx context.Context) (*DeltaStats, error) {
	var out *DeltaStats
	err := c.roundTrip(ctx, false, wire.FrameDeltaStats,
		func(id uint32) []byte { return (&wire.DeltaStatsReq{ID: id}).Encode() },
		wire.FrameDeltaStatsResult, func(p []byte) error {
			r, err := wire.DecodeDeltaStatsResult(p)
			if err == nil {
				out = &DeltaStats{
					Cells: r.Cells, Bytes: r.Bytes,
					DirtyChunks: r.DirtyChunks, TouchedChunks: r.TouchedChunks,
					BudgetBytes: r.BudgetBytes, Compactions: r.Compactions,
				}
			}
			return err
		})
	return out, err
}

// Compact asks the server to fold its accumulated deltas into the chunk
// store now and reports the server-side elapsed time. Canceling ctx
// abandons the wait client-side only — the compaction itself is not
// interruptible.
func (c *Conn) Compact(ctx context.Context) (time.Duration, error) {
	var elapsed time.Duration
	err := c.roundTrip(ctx, true, wire.FrameCompact,
		func(id uint32) []byte { return (&wire.CompactReq{ID: id}).Encode() },
		wire.FrameCompactAck, func(p []byte) error {
			ack, err := wire.DecodeCompactAck(p)
			if err == nil {
				elapsed = time.Duration(ack.ElapsedNS)
			}
			return err
		})
	return elapsed, err
}

// watchCancel arms ctx-cancellation for request id: when ctx fires, a
// Cancel frame goes to the server and the read deadline drops to
// CancelGrace, so the pending read either sees the server's
// acknowledgement (stream stays clean, connection reusable) or times
// out (connection broken). The returned stop function must be called
// before the request returns; it blocks until the watcher is inert so
// no deadline write races the connection's next request.
func (c *Conn) watchCancel(ctx context.Context, id uint32) (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		select {
		case <-ctx.Done():
			c.writeFrame(wire.FrameCancel, (&wire.Cancel{ID: id}).Encode())
			c.nc.SetReadDeadline(time.Now().Add(c.cfg.CancelGrace))
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
		c.nc.SetReadDeadline(time.Time{})
	}
}

// Query runs sql on the chosen engine and returns the full result set.
// Canceling ctx mid-query sends a Cancel frame so the server stops its
// operator loop; the connection remains usable and ctx's error is
// returned.
func (c *Conn) Query(ctx context.Context, sql string, engine Engine) (*Result, error) {
	res := &Result{}
	err := c.QueryFunc(ctx, sql, engine, res, func(rows []Row) error {
		res.Rows = append(res.Rows, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// QueryFunc is the streaming variant of Query: onBatch is invoked for
// every row batch as it arrives; hdr (optional) receives the plan
// metadata from the result header before the first batch. Returning an
// error from onBatch cancels the query server-side and surfaces that
// error.
func (c *Conn) QueryFunc(ctx context.Context, sql string, engine Engine,
	hdr *Result, onBatch func(rows []Row) error) error {
	id, err := c.nextRequest(ctx)
	if err != nil {
		return err
	}
	// Mint the query's identity here, before the frame leaves: the ID
	// names this execution in the server's trace, flight recorder, and
	// slow-query log even if the connection dies before the response.
	qid := obs.NewQueryID()
	q := &wire.Query{ID: id, Engine: wire.Engine(engine), SQL: sql, TraceID: qid}
	if err := c.writeFrame(wire.FrameQuery, q.Encode()); err != nil {
		return err
	}
	if hdr == nil {
		hdr = &Result{}
	}
	hdr.QueryID = qid

	stop := c.watchCancel(ctx, id)
	defer stop()

	var batchErr error
	batchCanceled := false
	for {
		t, fb, err := c.readFrame()
		if err != nil {
			if ctx.Err() != nil { // grace expired with no acknowledgement
				return ctx.Err()
			}
			return err
		}
		draining := batchCanceled || ctx.Err() != nil
		// Each arm decodes then releases the pooled payload immediately;
		// the wire decoders copy everything they retain.
		switch t {
		case wire.FrameResultHeader:
			h, err := wire.DecodeResultHeader(fb.Bytes())
			fb.Release()
			if err != nil || h.ID != id {
				c.broken.Store(true)
				return fmt.Errorf("client: bad result header: %v", err)
			}
			hdr.Plan = h.Plan
			hdr.Engine = Engine(h.Engine)
			hdr.GroupAttrs = h.GroupAttrs
			hdr.Aggs = h.Aggs
		case wire.FrameRowBatch:
			rb, err := wire.DecodeRowBatch(fb.Bytes())
			fb.Release()
			if err != nil || rb.ID != id {
				c.broken.Store(true)
				return fmt.Errorf("client: bad row batch: %v", err)
			}
			if draining {
				continue // canceled; drop the remaining stream
			}
			if err := onBatch(rb.Rows); err != nil {
				batchErr = err
				batchCanceled = true
				c.writeFrame(wire.FrameCancel, (&wire.Cancel{ID: id}).Encode())
				c.nc.SetReadDeadline(time.Now().Add(c.cfg.CancelGrace))
			}
		case wire.FrameResultDone:
			d, err := wire.DecodeResultDone(fb.Bytes())
			fb.Release()
			if err != nil || d.ID != id {
				c.broken.Store(true)
				return fmt.Errorf("client: bad result done: %v", err)
			}
			// The server finished before any cancel reached it; the
			// stream is clean either way. Report the caller's intent.
			if batchErr != nil {
				return batchErr
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			hdr.Elapsed = time.Duration(d.ElapsedNS)
			if d.QueryID != "" {
				hdr.QueryID = d.QueryID // server-authoritative echo
			}
			hdr.Trace = d.Trace
			return nil
		case wire.FrameError:
			err := c.serverError(ctx, fb.Bytes())
			fb.Release()
			if batchErr != nil {
				return batchErr
			}
			return err
		default:
			fb.Release()
			c.broken.Store(true)
			return fmt.Errorf("client: unexpected %s frame", t)
		}
	}
}

// Explain asks the server to plan (and for EXPLAIN ANALYZE, run) sql
// and returns the rendered explanation.
func (c *Conn) Explain(ctx context.Context, sql string, engine Engine) (*Explanation, error) {
	var out *Explanation
	err := c.roundTrip(ctx, true, wire.FrameExplain,
		func(id uint32) []byte { return (&wire.Explain{ID: id, Engine: wire.Engine(engine), SQL: sql}).Encode() },
		wire.FrameExplainResult, func(p []byte) error {
			er, err := wire.DecodeExplainResult(p)
			if err == nil {
				out = &Explanation{Chosen: er.Chosen, Engine: Engine(er.Engine), Text: er.Text}
			}
			return err
		})
	if err == nil {
		err = ctx.Err() // answered, but the caller had already given up
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
