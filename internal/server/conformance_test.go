package server_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// startBackend serves one of the two backends over a fresh test
// database: "local" is a plain olapd, "coordinator" a coordinator in
// front of three shard servers that each hold the full database.
func startBackend(t *testing.T, kind string, cfg server.Config) *server.Server {
	t.Helper()
	db := server.NewTestDB(t)
	start := func(be server.Backend, cfg server.Config) *server.Server {
		srv := server.New(be, cfg)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return srv
	}
	if kind == "local" {
		return start(server.Local{DB: db}, cfg)
	}
	var shards []string
	for i := 0; i < 3; i++ {
		shards = append(shards, start(server.Local{DB: db}, server.Config{}).Addr().String())
	}
	co, err := cluster.New(cluster.Config{Shards: shards, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := start(co, cfg)
	t.Cleanup(co.Close) // runs before the servers shut down
	return front
}

func dial(t *testing.T, srv *server.Server) *client.Conn {
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
	ft, payload, err := wire.ReadFrame(br)
	if err != nil || ft != wire.FrameError {
		t.Fatalf("frame = %s, err = %v, want an error frame", ft, err)
	}
	if ef, err := wire.DecodeError(payload); err != nil || ef.Code != wire.CodeProtocol {
		t.Fatalf("error frame = %+v (%v), want CodeProtocol", ef, err)
	}
}

func parkQuery(t *testing.T, srv *server.Server, conn *client.Conn) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() {
		_, err := conn.Query(context.Background(), server.RetailQuery, client.Auto)
		res <- err
	}()
	for i := 0; srv.Waiting() == 0; i++ {
		if i > 2000 {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return res
}

// TestProtocolConformance runs the protocol-level behaviours — the ones
// the connection loop owns, whatever answers the requests — against both
// backends.
func TestProtocolConformance(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		cfg  server.Config
		run  func(t *testing.T, srv *server.Server)
	}{
		{"version mismatch", server.Config{}, func(t *testing.T, srv *server.Server) {
			nc, br := server.RawHello(t, srv.Addr().String(), wire.Version+9)
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			wantProtocolError(t, br)
		}},
		{"ping", server.Config{}, func(t *testing.T, srv *server.Server) {
			conn := dial(t, srv)
			if err := conn.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
			if conn.Server() == "" {
				t.Fatal("handshake carried no banner")
			}
		}},
		{"bad option value", server.Config{}, func(t *testing.T, srv *server.Server) {
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
		{"unknown option", server.Config{}, func(t *testing.T, srv *server.Server) {
			conn := dial(t, srv)
			if err := conn.SetOption(ctx, "TURBO", "on"); !client.IsCode(err, client.CodeProtocol) {
				t.Fatalf("err = %v, want CodeProtocol", err)
			}
			if _, err := conn.Query(ctx, server.RetailQuery, client.Auto); err != nil {
				t.Fatalf("query after option error: %v", err)
			}
		}},
		{"cancel while queued", server.Config{MaxConcurrent: 1, QueueDepth: 4}, func(t *testing.T, srv *server.Server) {
			release := srv.HoldSlot()
			conn := dial(t, srv)
			qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			if _, err := conn.Query(qctx, server.RetailQuery, client.Auto); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("queued+canceled query err = %v, want DeadlineExceeded", err)
			}
			release()
			if res, err := conn.Query(ctx, server.RetailQuery, client.Auto); err != nil || len(res.Rows) != 16 {
				t.Fatalf("query after cancel = (%v, %v)", res, err)
			}
		}},
		{"cancel mid-stream", server.Config{BatchRows: 1}, func(t *testing.T, srv *server.Server) {
			conn := dial(t, srv)
			qctx, cancel := context.WithCancel(ctx)
			defer cancel()
			batches := 0
			err := conn.QueryFunc(qctx, server.RetailQuery, client.Auto, nil, func([]client.Row) error {
				batches++
				cancel() // first of 16 batches consumed
				return nil
			})
			if !errors.Is(err, context.Canceled) || batches != 1 {
				t.Fatalf("canceled stream: err = %v after %d batches, want context.Canceled after 1", err, batches)
			}
			if res, err := conn.Query(ctx, server.RetailQuery, client.Auto); err != nil || len(res.Rows) != 16 {
				t.Fatalf("query after cancel = (%v, %v)", res, err)
			}
		}},
		{"drain", server.Config{MaxConcurrent: 1, QueueDepth: 4}, func(t *testing.T, srv *server.Server) {
			srv.HoldSlot()
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
		{"unknown frame type", server.Config{}, func(t *testing.T, srv *server.Server) {
			nc, br := server.RawDial(t, srv.Addr().String())
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.WriteFrame(nc, wire.FrameType(0x7F), []byte{0, 0, 0, 1}); err != nil {
				t.Fatal(err)
			}
			wantProtocolError(t, br)
			if _, _, err := wire.ReadFrame(br); !errors.Is(err, io.EOF) {
				t.Fatalf("read after the error frame: %v, want the connection closed", err)
			}
		}},
	}
	for _, kind := range []string{"local", "coordinator"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) { tc.run(t, startBackend(t, kind, tc.cfg)) })
		}
	}
}
