package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/wire"
)

// newWideDB builds a two-dimensional database whose full consolidation
// has n*n groups, with labels padded by pad bytes (long labels make a
// result of several MiB, more than the socket buffers between a server
// and a client that stops reading); agroup and bgroup split each
// dimension in ten.
func newWideDB(t testing.TB, n, pad int) *repro.DB {
	t.Helper()
	db, err := repro.Open(repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := &repro.StarSchema{
		Fact: repro.FactSchema{Name: "fact", Dims: []string{"a", "b"}, Measure: "v"},
		Dimensions: []repro.DimensionSchema{
			{Name: "a", Key: "ak", Attrs: []string{"aname", "agroup"}},
			{Name: "b", Key: "bk", Attrs: []string{"bname", "bgroup"}},
		},
	}
	if err := db.CreateStarSchema(schema); err != nil {
		t.Fatal(err)
	}
	padding := strings.Repeat("x", pad)
	for _, dim := range []string{"a", "b"} {
		rows := make([]repro.DimensionRow, n)
		for k := range rows {
			rows[k] = repro.DimensionRow{Key: int64(k),
				Attrs: []string{fmt.Sprintf("%s%04d-%s", dim, k, padding), fmt.Sprintf("%sg%d", dim, k*10/n)}}
		}
		if err := db.LoadDimension(dim, rows); err != nil {
			t.Fatal(err)
		}
	}
	facts := make([]repro.FactTuple, 0, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			facts = append(facts, repro.FactTuple{Keys: []int64{int64(a), int64(b)}, Measure: int64(a + b)})
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatal(err)
	}
	return db
}

// readFrame reads one frame and returns a copy of its payload, which
// stays valid after the next read.
func readFrame(r io.Reader) (wire.FrameType, []byte, error) {
	ft, fb, err := wire.ReadFrameBuffer(r)
	if err != nil {
		return 0, nil, err
	}
	defer fb.Release()
	return ft, bytes.Clone(fb.Bytes()), nil
}

// decodeAs decodes p into a new T, returning a nil frame on error.
func decodeAs[T any, PT interface {
	*T
	wire.Frame
}](p []byte) (PT, error) {
	f := PT(new(T))
	if err := wire.Decode(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

// rawHello opens a connection without the client package and sends a
// Hello frame of the given version, for tests that must misbehave on the
// wire.
func rawHello(t testing.TB, addr string, version uint16) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.Encode(&wire.Hello{Version: version})); err != nil {
		t.Fatal(err)
	}
	return nc, bufio.NewReader(nc)
}

// rawDial is rawHello through a completed handshake.
func rawDial(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, br := rawHello(t, addr, wire.Version)
	if ft, _, err := readFrame(br); err != nil || ft != wire.FrameHelloAck {
		t.Fatalf("handshake: frame %s, err %v", ft, err)
	}
	return nc, br
}

// inflightRequests counts the spawned requests across all connections.
func inflightRequests(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	n := 0
	for c := range srv.conns {
		c.imu.Lock()
		n += len(c.inflight)
		c.imu.Unlock()
	}
	return n
}

func waitFor(t testing.TB, what string, limit time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServerStalledReaderFreesSlot: a client that sends a query and
// never reads its multi-MiB result must not pin the server's only
// admission slot — a second client's query runs while the first stream
// is still blocked — and once a frame write to the stalled client times
// out, the server closes that connection instead of leaving a torn
// stream behind.
func TestServerStalledReaderFreesSlot(t *testing.T) {
	db := newWideDB(t, 200, 60)
	srv := New(db, Config{MaxConcurrent: 1, QueueDepth: 4, WriteTimeout: 3 * time.Second})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	bytesOut := func() int64 { return db.Registry().Snapshot().Counter("server_bytes_out_total") }

	stalled, _ := rawDial(t, srv.Addr().String())
	if err := stalled.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	wide := &wire.Query{ID: 1, Engine: wire.StarJoin,
		SQL: "select sum(v), aname, bname from fact, a, b group by aname, bname"}
	if err := wire.WriteFrame(stalled, wire.FrameQuery, wire.Encode(wide)); err != nil {
		t.Fatal(err)
	}
	// The stream has started (well past the handshake's few bytes) ...
	waitFor(t, "the result stream to start", 30*time.Second, func() bool { return bytesOut() > 64<<10 })

	// ... and while it is blocked, the only slot must be free again.
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	narrow := "select sum(v), aname from fact, a where aname in ('a0000-" + strings.Repeat("x", 60) + "') group by aname"
	if _, err := conn.Query(ctx, narrow, client.StarJoin); err != nil {
		t.Fatalf("second client's query behind a stalled reader: %v (running=%d waiting=%d)",
			err, srv.adm.running(), srv.adm.waiting())
	}
	conn.Close()
	// The second query's goroutine leaves the registry a moment after its
	// last frame reaches the client; then only the stalled stream is left
	// (none at all would mean the result fit the socket buffers).
	waitFor(t, "exactly the stalled stream to be in flight", 2*time.Second, func() bool { return inflightRequests(srv) <= 1 })
	if n := inflightRequests(srv); n != 1 {
		t.Fatalf("%d requests in flight, want the 1 stalled stream (did the result fit the socket buffers?)", n)
	}

	// WriteTimeout later the blocked write fails and the server hangs up.
	waitFor(t, "the stalled connection to be closed", 10*time.Second, func() bool {
		return db.Registry().Snapshot().Gauge("server_connections_active") == 0
	})
}

// TestServerPipelineCap pipelines more Query frames than maxInflight
// down one connection without reading: the surplus is refused on the
// frame loop with typed admission errors, and no goroutine is spawned
// for it.
func TestServerPipelineCap(t *testing.T) {
	const surplus = 5
	srv, _ := startServer(t, Config{MaxConcurrent: 1, QueueDepth: 1000})
	srv.adm.slots <- struct{}{} // every admitted query parks in the queue

	nc, br := rawDial(t, srv.Addr().String())
	before := runtime.NumGoroutine()
	for id := uint32(1); id <= maxInflight+surplus; id++ {
		q := &wire.Query{ID: id, SQL: retailQuery}
		if err := wire.WriteFrame(nc, wire.FrameQuery, wire.Encode(q)); err != nil {
			t.Fatal(err)
		}
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < surplus; i++ {
		ft, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("rejection %d of %d: %v", i+1, surplus, err)
		}
		ef, err := decodeAs[wire.ErrorFrame](payload)
		if ft != wire.FrameError || err != nil || ef.Code != wire.CodeAdmission || ef.ID <= maxInflight {
			t.Fatalf("frame %s %+v (%v), want CodeAdmission for a request past the cap", ft, ef, err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > maxInflight+2 {
		t.Fatalf("%d goroutines for %d pipelined requests, want at most the cap of %d", grew, maxInflight+surplus, maxInflight)
	}
	if n := inflightRequests(srv); n != maxInflight {
		t.Fatalf("%d requests in flight, want %d", n, maxInflight)
	}

	<-srv.adm.slots // release: the admitted queries now run and stream
	for done := 0; done < maxInflight; {
		ft, _, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d results: %v", done, err)
		}
		if ft == wire.FrameError {
			t.Fatal("an admitted query failed")
		}
		if ft == wire.FrameResultDone {
			done++
		}
	}
}

// TestEngineBytesMirrorEngines pins what the session's direct
// conversions rely on: the protocol's engine byte has the values of the
// repro engine constants.
func TestEngineBytesMirrorEngines(t *testing.T) {
	pairs := map[client.Engine]repro.Engine{
		client.Auto:     repro.Auto,
		client.Array:    repro.ArrayEngine,
		client.StarJoin: repro.StarJoinEngine,
		client.Bitmap:   repro.BitmapEngine,
	}
	for ce, re := range pairs {
		if repro.Engine(ce) != re || client.Engine(re) != ce {
			t.Errorf("client engine %v (%d) does not mirror repro engine %v (%d)", ce, ce, re, re)
		}
	}
}
