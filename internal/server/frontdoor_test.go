package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// hostileHeader is a frame header claiming a MaxPayload-byte frame of
// type ft, followed by one byte of that payload.
func hostileHeader(ft wire.FrameType) []byte {
	b := binary.BigEndian.AppendUint32(nil, wire.MaxPayload)
	return append(b, byte(ft), 0)
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestServerHostileLengthPrefixes: a length prefix is a claim, not a
// size. 64 connections that complete the handshake and then send a
// header claiming 16 MiB plus one byte of it must not make the server
// allocate what they claim, and a well-behaved client is answered
// meanwhile. Before the handshake, such a claim is refused outright.
func TestServerHostileLengthPrefixes(t *testing.T) {
	srv, _ := startServer(t, Config{})
	good := dial(t, srv) // dialed first so its session is not counted
	before := heapInuse()
	sent := srv.bytesIn.Value()
	const hostile = 64
	for range hostile {
		nc, _ := rawDial(t, srv.Addr().String())
		if _, err := nc.Write(hostileHeader(wire.FrameQuery)); err != nil {
			t.Fatal(err)
		}
	}
	// Every handshake and every hostile byte has reached the server.
	want := sent + hostile*int64(5+6+len(hostileHeader(wire.FrameQuery)))
	for i := 0; srv.bytesIn.Value() < want; i++ {
		if i > 2000 {
			t.Fatalf("server read %d of %d bytes", srv.bytesIn.Value()-sent, want-sent)
		}
		time.Sleep(time.Millisecond)
	}
	grew := int64(heapInuse()) - int64(before)
	t.Logf("%d hostile connections grew the heap by %d KiB", hostile, grew>>10)
	if grew > 16<<20 {
		t.Fatalf("%d connections each claiming %d bytes grew the heap by %d MiB, want at most 16",
			hostile, wire.MaxPayload, grew>>20)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := good.Query(ctx, retailQuery, client.Auto); err != nil {
		t.Fatalf("a well-behaved client beside %d hostile ones: %v", hostile, err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(hostileHeader(wire.FrameHello)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	wantProtocolError(t, br)
	if _, _, err := readFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("after refusing an oversized hello: err = %v, want the connection closed", err)
	}
}

// TestServerConnectionCap: past maxConns open connections, a new one is
// closed at accept and counted, and the sessions already open go on.
func TestServerConnectionCap(t *testing.T) {
	srv, db := startServer(t, Config{})
	conn := dial(t, srv)
	for range maxConns - 1 {
		rawDial(t, srv.Addr().String())
	}
	if _, err := client.Dial(srv.Addr().String(), client.Config{DialTimeout: 2 * time.Second}); err == nil {
		t.Fatalf("connection %d was served", maxConns+1)
	}
	if got := db.Registry().Snapshot().Counter("server_connections_refused_total"); got != 1 {
		t.Fatalf("server_connections_refused_total = %d, want 1", got)
	}
	if _, err := conn.Query(context.Background(), retailQuery, client.Auto); err != nil {
		t.Fatalf("an open session after a refusal: %v", err)
	}
}

// TestServerShutdownSweepsLateAccept: a connection accepted just before
// Shutdown, and registered only after Shutdown has begun, must not be
// missed by Shutdown's sweep of the open connections — it would finish
// its handshake, idle with no read deadline, and Shutdown would wait on
// it forever, whatever its own deadline.
func TestServerShutdownSweepsLateAccept(t *testing.T) {
	srv := New(newTestDB(t), Config{})
	parked := make(chan struct{})
	srv.accepted = func() {
		close(parked)
		<-srv.draining
		time.Sleep(100 * time.Millisecond) // long enough for Shutdown to reach its sweep
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	dialed := make(chan *client.Conn, 1)
	go func() {
		conn, _ := client.Dial(srv.Addr().String(), client.Config{})
		dialed <- conn
	}()
	<-parked

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still waiting 4 s past its deadline on a connection accepted as it began")
	}
	if conn := <-dialed; conn != nil {
		conn.Close()
	}
}
