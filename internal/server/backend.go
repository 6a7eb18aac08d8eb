package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/wire"
)

// Backend is what a Server serves. The server owns everything about a
// connection — accept, handshake, frame I/O, cancel registry, admission,
// drain, deadlines, result streaming — and asks the backend only to
// answer requests. There are two: Local (an embedded database) and
// cluster.Coordinator (scatter-gather over shard servers).
type Backend interface {
	// Banner names the backend in the HelloAck frame.
	Banner() string
	// Registry is where the server_* metrics go, beside the backend's own.
	Registry() *obs.Registry
	// NewSession opens the state behind one accepted connection, seeded
	// with cfg's session defaults (Workers, the shard range, the
	// slow-query log) as far as the backend has a use for them.
	NewSession(cfg *Config) Session
}

// Session answers one connection's requests: one method per request
// frame, in the client package's types — *client.Conn's own method set
// (Query's shard window apart), so a REPL drives either side of the wire
// alike. Query, Explain, Ingest and Compact run on their own goroutines
// under a context a Cancel frame or disconnect cancels, so they may race
// each other and SetOption; the rest are called from the frame loop.
//
// An operation the backend does not have returns an error wrapping
// ErrUnsupported. A *client.Error (possibly wrapped) reaches the client
// with its own code; any other error is an execution failure.
type Session interface {
	// Query returns the materialised result. win, when non-nil, is a
	// SubQuery frame's shard window. The query's identity and measured
	// admission wait ride ctx as an obs.QueryTag.
	Query(ctx context.Context, sql string, engine client.Engine, win *ShardWindow) (*Result, error)
	Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error)
	SetOption(ctx context.Context, name, value string) error
	Ingest(ctx context.Context, cells []client.IngestCell) error
	DeltaStats(ctx context.Context) (*client.DeltaStats, error)
	Compact(ctx context.Context) (time.Duration, error)
	Profiles(ctx context.Context, queryID string, limit int) (string, error)
}

// Result is a backend's answer to Query: the client's result, with the
// rows carried one of two ways. A backend whose rows already are client
// rows (a coordinator's merge) leaves them in Rows and the server encodes
// them batch by batch. A backend that keeps results across queries hands
// over Frames instead — the row batches as encoded once for every request
// that gets this result, at the Config's BatchRows — and leaves Rows
// empty. NumRows counts the rows either way.
type Result struct {
	client.Result
	Frames  wire.RowImage
	NumRows int
}

// ShardWindow restricts one query to shard Shard of Shards, with
// Workers > 0 overriding the session's parallel degree for that query.
type ShardWindow struct{ Shard, Shards, Workers int }

// ErrUnsupported is the one answer to an operation a backend does not
// have; the server reports it as wire.CodeUnsupported under the
// request's own ID and keeps the connection.
var ErrUnsupported = errors.New("not supported")

func badOption(format string, args ...any) error {
	return &client.Error{Code: client.CodeProtocol, Message: fmt.Sprintf(format, args...)}
}

// SetOnOff applies an on|off session option through set; a bad value is
// the typed protocol error every backend rejects it with.
func SetOnOff(name, value string, set func(bool)) error {
	v := strings.ToLower(value)
	if v != "on" && v != "off" {
		return badOption("bad value %q for option %s (want on|off)", value, strings.ToUpper(name))
	}
	set(v == "on")
	return nil
}

// SetWorkers applies the PARALLEL session option's worker count.
func SetWorkers(value string, set func(int)) error {
	n, err := strconv.Atoi(strings.TrimSpace(value))
	if err != nil || n < 0 {
		return badOption("bad value %q for option PARALLEL (want a non-negative integer)", value)
	}
	set(n)
	return nil
}

// UnknownOption is the rejection for a session option no backend has.
func UnknownOption(name string) error { return badOption("unknown session option %q", name) }

// Local is the Backend over an embedded database: one read session per
// connection, writes through the database's delta path.
type Local struct{ DB *repro.DB }

// Banner implements Backend.
func (l Local) Banner() string { return "repro-olapd/1" }

// Registry implements Backend.
func (l Local) Registry() *obs.Registry { return l.DB.Registry() }

// NewSession implements Backend.
func (l Local) NewSession(cfg *Config) Session {
	s := &localSession{db: l.DB, sess: l.DB.Session(), workers: cfg.Workers, batchRows: cfg.BatchRows}
	if s.batchRows <= 0 {
		s.batchRows = wire.DefaultBatchRows
	}
	s.encode = func(rows []repro.Row) []byte { return wire.AppendRowImage(nil, rows, s.batchRows) }
	s.sess.SetSlowQueryLog(cfg.SlowQueryLog, cfg.SlowQueryMin) // nil: none
	s.sess.SetParallel(cfg.Workers)                            // 0: the engine default
	s.sess.SetShardRange(cfg.ShardIndex, cfg.ShardCount)       // validated in Start; <= 1: none
	return s
}

// localSession converts between client.Engine and repro.Engine directly:
// the protocol's engine byte mirrors the engine constants (wire.Engine).
type localSession struct {
	db      *repro.DB
	sess    *repro.Session
	workers int // what PARALLEL 0 resets to; 0 means the engine default

	// encode renders a result's rows as the RowBatch frames the server
	// sends, batchRows to a frame.
	batchRows int
	encode    func(rows []repro.Row) []byte
}

// statementError types a rejected statement as CodeParse, so clients can
// tell a bad query from a failed one.
func statementError(err error) error {
	var qe *query.Error
	if errors.As(err, &qe) {
		return &client.Error{Code: client.CodeParse, Message: err.Error()}
	}
	return err
}

// Query never copies the rows: they go to the server as their frame
// image, which a result held by the database's result cache has built
// once (by the query that put it there, or the first to hit it) and
// every later hit reuses.
func (s *localSession) Query(ctx context.Context, sql string, engine client.Engine, win *ShardWindow) (*Result, error) {
	var res *repro.Result
	var err error
	if win != nil {
		res, err = s.sess.QueryOnShardContext(ctx, sql, repro.Engine(engine), win.Shard, win.Shards, win.Workers)
	} else {
		res, err = s.sess.QueryOnContext(ctx, sql, repro.Engine(engine))
	}
	if err != nil {
		return nil, statementError(err)
	}
	out := &Result{
		Result: client.Result{
			Plan:       res.Plan,
			GroupAttrs: res.GroupAttrs,
			Aggs:       make([]uint8, len(res.Aggs)),
			Elapsed:    res.Elapsed,
			QueryID:    res.QueryID,
		},
		Frames:  res.Image(s.batchRows, s.encode),
		NumRows: len(res.Rows),
	}
	if res.Explanation != nil {
		out.Engine = client.Engine(res.Explanation.Engine)
	}
	for i, a := range res.Aggs {
		out.Aggs[i] = uint8(a)
	}
	if res.Trace != nil && s.sess.TraceEnabled() {
		out.Trace = res.Trace.String()
	}
	return out, nil
}

// Explain renders the planner's explanation; EXPLAIN ANALYZE text
// executes the query too and appends the run summary.
func (s *localSession) Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error) {
	spec, err := query.ParseAndCompile(sql, s.db.Schema())
	if err != nil {
		return nil, statementError(err)
	}
	var expl *repro.Explanation
	var tail string
	if spec.Analyze {
		res, err := s.sess.QueryOnContext(ctx, sql, repro.Engine(engine))
		if err != nil {
			return nil, err
		}
		expl = res.Explanation
		tail = fmt.Sprintf("executed: elapsed=%v io={%s} rows=%d\n", res.Elapsed, res.IO.String(), len(res.Rows))
	} else if expl, err = s.sess.ExplainOnContext(ctx, sql, repro.Engine(engine)); err != nil {
		return nil, err
	}
	return &client.Explanation{
		Chosen: expl.Chosen,
		Engine: client.Engine(expl.Engine),
		Text:   expl.String() + tail,
	}, nil
}

// SetOption applies CACHE on|off, PARALLEL n or TRACE on|off. The switch
// takes effect for the next query (an in-flight query keeps the setting
// it started with).
func (s *localSession) SetOption(_ context.Context, name, value string) error {
	switch strings.ToUpper(name) {
	case "TRACE":
		return SetOnOff(name, value, s.sess.SetTrace)
	case "CACHE":
		return SetOnOff(name, value, s.sess.SetCache)
	case "PARALLEL":
		return SetWorkers(value, func(n int) {
			if n == 0 {
				n = s.workers // the server's configured default, not GOMAXPROCS
			}
			s.sess.SetParallel(n)
		})
	case "PARTIAL":
		return fmt.Errorf("%w: PARTIAL is a cluster coordinator's option", ErrUnsupported)
	}
	return UnknownOption(name)
}

// Ingest applies the batch through the database's HTAP delta path.
func (s *localSession) Ingest(ctx context.Context, cells []client.IngestCell) error {
	batch := make([]repro.IngestCell, len(cells))
	for i, c := range cells {
		batch[i] = repro.IngestCell{Keys: c.Keys, Value: c.Value, Delete: c.Delete}
	}
	return s.db.InsertCellsContext(ctx, batch)
}

func (s *localSession) DeltaStats(context.Context) (*client.DeltaStats, error) {
	st := s.db.DeltaStats()
	return &client.DeltaStats{
		Cells:         st.Cells,
		Bytes:         st.Bytes,
		DirtyChunks:   int64(st.DirtyChunks),
		TouchedChunks: int64(st.TouchedChunks),
		BudgetBytes:   st.BudgetBytes,
		Compactions:   s.db.CompactionsTotal(),
	}, nil
}

// Compact runs one explicit compaction; the database serializes
// concurrent ones internally.
func (s *localSession) Compact(context.Context) (time.Duration, error) {
	start := time.Now()
	err := s.db.Compact()
	return time.Since(start), err
}

// Profiles reads the database's flight recorder: one profile by query
// ID, or the recent/slowest sets in the shape /debug/queries serves.
func (s *localSession) Profiles(_ context.Context, queryID string, limit int) (string, error) {
	fr := s.db.FlightRecorder()
	var payload any
	if queryID != "" {
		p := fr.Profile(queryID)
		if p == nil {
			return "", fmt.Errorf("no profile for query %q", queryID)
		}
		payload = p
	} else {
		payload = struct {
			Recent  []*obs.QueryProfile `json:"recent"`
			Slowest []*obs.QueryProfile `json:"slowest"`
		}{fr.Recent(limit), fr.Slowest()}
	}
	b, err := json.Marshal(payload)
	return string(b), err
}
