package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/client"
	"repro/internal/wire"
)

func dial(t *testing.T, srv *Server) *client.Conn {
	t.Helper()
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func wantProtocolError(t *testing.T, br *bufio.Reader) {
	t.Helper()
	ft, payload, err := readFrame(br)
	if err != nil || ft != wire.FrameError {
		t.Fatalf("frame = %s, err = %v, want an error frame", ft, err)
	}
	if ef, err := decodeAs[wire.ErrorFrame](payload); err != nil || ef.Code != wire.CodeProtocol {
		t.Fatalf("error frame = %+v (%v), want CodeProtocol", ef, err)
	}
}

// holdSlot occupies one admission slot until release is called.
func holdSlot(srv *Server) (release func()) {
	srv.adm.slots <- struct{}{}
	return func() { <-srv.adm.slots }
}

func parkQuery(t *testing.T, srv *Server, conn *client.Conn) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() {
		_, err := conn.Query(context.Background(), retailQuery, client.Auto)
		res <- err
	}()
	for i := 0; srv.adm.waiting() == 0; i++ {
		if i > 2000 {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return res
}

// TestProtocolConformance runs the protocol-level behaviours — the ones
// the connection loop owns, whatever answers the requests — against a
// database's sessions.
func TestProtocolConformance(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, srv *Server)
	}{
		{"version mismatch", Config{}, func(t *testing.T, srv *Server) {
			// A far-off version, and the one before this: a v4 peer would
			// misread every ResultDone, so it is refused at the handshake.
			for _, v := range []uint16{wire.Version + 9, wire.Version - 1} {
				nc, br := rawHello(t, srv.Addr().String(), v)
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				wantProtocolError(t, br)
			}
		}},
		{"ping", Config{}, func(t *testing.T, srv *Server) {
			conn := dial(t, srv)
			if err := conn.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
			if conn.Server() == "" {
				t.Fatal("handshake carried no banner")
			}
		}},
		{"bad option value", Config{}, func(t *testing.T, srv *Server) {
			conn := dial(t, srv)
			for _, opt := range [][2]string{{"TRACE", "sideways"}, {"PARALLEL", "lots"}} {
				if err := conn.SetOption(ctx, opt[0], opt[1]); !client.IsCode(err, client.CodeProtocol) {
					t.Fatalf("%s %s: err = %v, want CodeProtocol", opt[0], opt[1], err)
				}
			}
			if err := conn.Ping(); err != nil {
				t.Fatalf("Ping after option errors: %v", err)
			}
		}},
		{"unknown option", Config{}, func(t *testing.T, srv *Server) {
			conn := dial(t, srv)
			if err := conn.SetOption(ctx, "TURBO", "on"); !client.IsCode(err, client.CodeProtocol) {
				t.Fatalf("err = %v, want CodeProtocol", err)
			}
			if _, err := conn.Query(ctx, retailQuery, client.Auto); err != nil {
				t.Fatalf("query after option error: %v", err)
			}
		}},
		{"cancel while queued", Config{MaxConcurrent: 1, QueueDepth: 4}, func(t *testing.T, srv *Server) {
			release := holdSlot(srv)
			conn := dial(t, srv)
			qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			if _, err := conn.Query(qctx, retailQuery, client.Auto); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("queued+canceled query err = %v, want DeadlineExceeded", err)
			}
			release()
			if res, err := conn.Query(ctx, retailQuery, client.Auto); err != nil || len(res.Rows) != 16 {
				t.Fatalf("query after cancel = (%v, %v)", res, err)
			}
		}},
		{"cancel mid-stream", Config{BatchRows: 1}, func(t *testing.T, srv *Server) {
			conn := dial(t, srv)
			qctx, cancel := context.WithCancel(ctx)
			defer cancel()
			batches := 0
			err := conn.QueryFunc(qctx, retailQuery, client.Auto, nil, func([]client.Row) error {
				batches++
				cancel() // first of 16 batches consumed
				return nil
			})
			if !errors.Is(err, context.Canceled) || batches != 1 {
				t.Fatalf("canceled stream: err = %v after %d batches, want context.Canceled after 1", err, batches)
			}
			if res, err := conn.Query(ctx, retailQuery, client.Auto); err != nil || len(res.Rows) != 16 {
				t.Fatalf("query after cancel = (%v, %v)", res, err)
			}
		}},
		{"drain", Config{MaxConcurrent: 1, QueueDepth: 4}, func(t *testing.T, srv *Server) {
			holdSlot(srv)
			parked := parkQuery(t, srv, dial(t, srv))
			sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := <-parked; !client.IsCode(err, client.CodeShutdown) {
				t.Fatalf("queued query during drain err = %v, want CodeShutdown", err)
			}
			if _, err := client.Dial(srv.Addr().String(), client.Config{DialTimeout: 500 * time.Millisecond}); err == nil {
				t.Fatal("dial succeeded after shutdown")
			}
		}},
		{"unknown frame type", Config{}, func(t *testing.T, srv *Server) {
			// 0x08 was the sub-query frame until v5 retired it.
			for _, ft := range []wire.FrameType{0x7F, 0x08} {
				nc, br := rawDial(t, srv.Addr().String())
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				if err := wire.WriteFrame(nc, ft, []byte{0, 0, 0, 1}); err != nil {
					t.Fatal(err)
				}
				wantProtocolError(t, br)
				if _, _, err := readFrame(br); !errors.Is(err, io.EOF) {
					t.Fatalf("frame type %s: read after the error frame: %v, want the connection closed", ft, err)
				}
			}
		}},
	}
	for _, tc := range cases {
		// The subtest path names what the cases ran against.
		t.Run("local/"+tc.name, func(t *testing.T) {
			srv, _ := startServer(t, tc.cfg)
			tc.run(t, srv)
		})
	}
}
