package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// The coordinator is a server.Backend: internal/server accepts, admits,
// drains and streams for it exactly as for an embedded database, and
// clients — olapcli, olapbench, the Go client — speak to it as to a
// single olapd. It answers Query and Explain by scatter-gather and has
// the PARTIAL, TRACE and PARALLEL session options; it holds no result
// cache, delta store or flight recorder (the shards do), so CACHE,
// Ingest, DeltaStats, Compact, Profiles and shard-windowed queries
// return server.ErrUnsupported.

// Banner implements server.Backend.
func (co *Coordinator) Banner() string { return "repro-olapd-coordinator/1" }

// Registry implements server.Backend.
func (co *Coordinator) Registry() *obs.Registry { return co.cfg.Registry }

// NewSession implements server.Backend. The server's session defaults do
// not apply: Config.Workers is the coordinator's own.
func (co *Coordinator) NewSession(*server.Config) server.Session { return &session{co: co} }

// session is one client connection's options; atomics because option
// frames race in-flight query goroutines.
type session struct {
	co      *Coordinator
	trace   atomic.Bool
	partial atomic.Bool
	workers atomic.Int32
}

func unsupported(what string) error {
	return fmt.Errorf("%w: a coordinator %s", server.ErrUnsupported, what)
}

// Query runs one distributed query. The distributed query's identity is
// the one the server put on ctx (the client's minted ID, when it sent
// one), so the shards' traces and profiles stitch to the client's.
func (s *session) Query(ctx context.Context, sql string, engine client.Engine, win *server.ShardWindow) (*server.Result, error) {
	if win != nil {
		return nil, unsupported("is not a shard of another coordinator")
	}
	opts := QueryOpts{Partial: s.partial.Load(), Trace: s.trace.Load(), Workers: int(s.workers.Load())}
	if tag := obs.QueryTagFromContext(ctx); tag != nil {
		opts.TraceID = tag.ID
	}
	res, err := s.co.Query(ctx, sql, engine, opts)
	if err != nil {
		return nil, err
	}
	return &server.Result{Result: res.Result, NumRows: len(res.Rows)}, nil
}

func (s *session) Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error) {
	return s.co.Explain(ctx, sql, engine)
}

// SetOption applies TRACE, PARTIAL or PARALLEL; the shards' caches still
// serve the sub-queries, but there is no coordinator-side CACHE to flip.
func (s *session) SetOption(_ context.Context, name, value string) error {
	switch strings.ToUpper(name) {
	case "TRACE":
		return server.SetOnOff(name, value, s.trace.Store)
	case "PARTIAL":
		return server.SetOnOff(name, value, s.partial.Store)
	case "PARALLEL":
		return server.SetWorkers(value, func(n int) { s.workers.Store(int32(n)) })
	case "CACHE":
		return unsupported("holds no result cache (the shard servers' still apply)")
	}
	return server.UnknownOption(name)
}

func (s *session) Ingest(context.Context, []client.IngestCell) error {
	return unsupported("holds no delta store (the shard servers do)")
}

func (s *session) DeltaStats(context.Context) (*client.DeltaStats, error) {
	return nil, unsupported("holds no delta store (the shard servers do)")
}

func (s *session) Compact(context.Context) (time.Duration, error) {
	return 0, unsupported("holds no delta store (the shard servers do)")
}

func (s *session) Profiles(context.Context, string, int) (string, error) {
	return "", unsupported("holds no flight recorder (the shard servers do)")
}
