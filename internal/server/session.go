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

// Result is a session's answer to Query: the client's result, with the
// rows carried as Frames — the row batches as encoded once for every
// request that gets this result, at the Config's BatchRows — and Rows
// left empty. NumRows counts the rows.
type Result struct {
	client.Result
	Frames  wire.RowImage
	NumRows int
}

// badOption is the typed protocol error a session option is rejected
// with: the connection stays up.
func badOption(format string, args ...any) error {
	return &client.Error{Code: client.CodeProtocol, Message: fmt.Sprintf(format, args...)}
}

// setOnOff applies an on|off session option through set.
func setOnOff(name, value string, set func(bool)) error {
	v := strings.ToLower(value)
	if v != "on" && v != "off" {
		return badOption("bad value %q for option %s (want on|off)", value, strings.ToUpper(name))
	}
	set(v == "on")
	return nil
}

// Session answers one connection's requests over an embedded database:
// one method per request frame, in the client package's types —
// *client.Conn's own method set (Query's result type apart), so a REPL
// drives either side of the wire alike. Reads go through one
// repro.Session per connection, writes through the database's delta
// path. Query, Explain, Ingest and Compact run on their own goroutines
// under a context a Cancel frame or disconnect cancels, so they may race
// each other and SetOption; the rest are called from the frame loop.
//
// A *client.Error (possibly wrapped) reaches the client with its own
// code; any other error is an execution failure. The protocol engine
// byte mirrors the engine constants (wire.Engine), so client.Engine and
// repro.Engine convert directly.
type Session struct {
	db      *repro.DB
	sess    *repro.Session
	workers int // what PARALLEL 0 resets to; 0 means the engine default

	// encode renders a result's rows as the RowBatch frames the server
	// sends, batchRows to a frame.
	batchRows int
	encode    func(rows []repro.Row) []byte
}

// NewSession opens the state behind one connection to db, seeded with
// cfg's session defaults: Workers, BatchRows and the slow-query log.
func NewSession(db *repro.DB, cfg *Config) *Session {
	s := &Session{db: db, sess: db.Session(), workers: cfg.Workers, batchRows: cfg.BatchRows}
	if s.batchRows <= 0 {
		s.batchRows = wire.DefaultBatchRows
	}
	s.encode = func(rows []repro.Row) []byte { return wire.AppendRowImage(nil, rows, s.batchRows) }
	s.sess.SetSlowQueryLog(cfg.SlowQueryLog, cfg.SlowQueryMin) // nil: none
	s.sess.SetParallel(cfg.Workers)                            // 0: the engine default
	return s
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

// Query returns the materialised result. The query's identity and
// measured admission wait ride ctx as an obs.QueryTag. The rows are
// never copied: they go to the server as their frame image, which a
// result held by the database's result cache has built once (by the
// query that put it there, or the first to hit it) and every later hit
// reuses.
func (s *Session) Query(ctx context.Context, sql string, engine client.Engine) (*Result, error) {
	res, err := s.sess.QueryOnContext(ctx, sql, repro.Engine(engine))
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
func (s *Session) Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error) {
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
func (s *Session) SetOption(_ context.Context, name, value string) error {
	switch strings.ToUpper(name) {
	case "TRACE":
		return setOnOff(name, value, s.sess.SetTrace)
	case "CACHE":
		return setOnOff(name, value, s.sess.SetCache)
	case "PARALLEL":
		n, err := strconv.Atoi(strings.TrimSpace(value))
		if err != nil || n < 0 {
			return badOption("bad value %q for option PARALLEL (want a non-negative integer)", value)
		}
		if n == 0 {
			n = s.workers // the server's configured default, not GOMAXPROCS
		}
		s.sess.SetParallel(n)
		return nil
	}
	return badOption("unknown session option %q", name)
}

// Ingest applies the batch through the database's HTAP delta path.
func (s *Session) Ingest(ctx context.Context, cells []client.IngestCell) error {
	batch := make([]repro.IngestCell, len(cells))
	for i, c := range cells {
		batch[i] = repro.IngestCell{Keys: c.Keys, Value: c.Value, Delete: c.Delete}
	}
	return s.db.InsertCellsContext(ctx, batch)
}

func (s *Session) DeltaStats(context.Context) (*client.DeltaStats, error) {
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
func (s *Session) Compact(context.Context) (time.Duration, error) {
	start := time.Now()
	err := s.db.Compact()
	return time.Since(start), err
}

// Profiles reads the database's flight recorder: one profile by query
// ID, or the recent/slowest sets in the shape /debug/queries serves.
func (s *Session) Profiles(_ context.Context, queryID string, limit int) (string, error) {
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
