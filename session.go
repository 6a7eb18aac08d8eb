package repro

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/exec"
)

// Session is an independent read cursor over the database. All sessions
// share one execution context — the guarded handle cache holding the
// dimension tables, fact file, and the array's master structures — so
// handles are opened once per database; each query gets a private
// chunk-decode cache, which keeps concurrent sessions safe under the
// race detector. The buffer pool underneath is shared and thread-safe;
// the catalog is read-only once loaded.
//
// Sessions only read. Schema creation, loads, index builds, and Commit
// stay on the owning DB handle and must not run concurrently with
// session queries (the engine is single-writer, as Paradise's bulk OLAP
// loads were).
type Session struct {
	ex *exec.Executor
}

// Session creates a new read session sharing the DB's execution context.
func (db *DB) Session() *Session {
	return &Session{ex: exec.NewSessionExecutor(db.ex.Context())}
}

// Query parses, plans, and executes a query in this session.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query with cancellation: when ctx is canceled the
// operator loop stops at its next check (between chunk batches on the
// array side, every few thousand tuples on the relational side) and
// ctx's error is returned. This is how a client disconnect stops
// server-side work.
func (s *Session) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return s.ex.ExecuteSQLContext(ctx, sql, Auto)
}

// QueryOn executes a query on an explicit engine in this session.
func (s *Session) QueryOn(sql string, engine Engine) (*Result, error) {
	return s.QueryOnContext(context.Background(), sql, engine)
}

// QueryOnContext is QueryOn with cancellation (see QueryContext).
func (s *Session) QueryOnContext(ctx context.Context, sql string, engine Engine) (*Result, error) {
	return s.ex.ExecuteSQLContext(ctx, sql, engine)
}

// Explain plans a query in this session without running it.
func (s *Session) Explain(sql string) (*Explanation, error) {
	return s.ExplainContext(context.Background(), sql)
}

// ExplainContext is Explain with cancellation (checked before
// planning).
func (s *Session) ExplainContext(ctx context.Context, sql string) (*Explanation, error) {
	return s.ex.ExplainSQLContext(ctx, sql, Auto)
}

// ExplainOnContext plans a query for an explicit engine with a context.
func (s *Session) ExplainOnContext(ctx context.Context, sql string, engine Engine) (*Explanation, error) {
	return s.ex.ExplainSQLContext(ctx, sql, engine)
}

// SetCache opts this session in or out of the database's query cache
// (the wire protocol's CACHE on|off option). Off, the session's queries
// neither probe nor populate the result cache and never piggyback on
// another query's execution. On by default; a no-op when the database
// has no cache configured.
func (s *Session) SetCache(on bool) { s.ex.SetCacheEnabled(on) }

// SetParallel sets this session's intra-query parallel degree (the wire
// protocol's PARALLEL n option): the number of workers a single query's
// operator loops may fan out to. 0 (the default) means GOMAXPROCS; 1
// forces sequential execution. The degree is clamped to the chosen
// plan's work units and never changes results.
func (s *Session) SetParallel(workers int) { s.ex.SetParallel(workers) }

// Parallel reports the session's configured parallel degree (0 =
// default to GOMAXPROCS at plan time).
func (s *Session) Parallel() int { return s.ex.Parallel() }

// SetTrace turns always-on tracing for this session on or off (the
// wire protocol's TRACE on|off option). On, every query collects the
// full fine-grained span tree — per-worker execution, cache probes,
// buffer I/O attributes — regardless of the database's sampling rate,
// and Result.Trace carries it. Off (the default), queries still record
// coarse spans and a flight-recorder profile; fine spans are sampled.
func (s *Session) SetTrace(on bool) { s.ex.SetTrace(on) }

// TraceEnabled reports whether always-on tracing is set.
func (s *Session) TraceEnabled() bool { return s.ex.TraceEnabled() }

// SetSlowQueryLog enables structured slow-query logging for this
// session's queries: those at or above min are reported to l with their
// SQL, plan, counters, and I/O. A nil logger disables it. Metrics
// recorded by the session land in the shared DB registry either way.
func (s *Session) SetSlowQueryLog(l *slog.Logger, min time.Duration) {
	s.ex.SetSlowQueryLog(l, min)
}
