package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
)

// Engine selects the evaluation strategy.
type Engine int8

// Engines. Auto lets the cost-based planner choose between the runnable
// plans using the catalog's load-time statistics — the array below the
// paper's selectivity crossover is beaten by bitmap + fact file (§5.6,
// Figs 8/9) — falling back to a structural heuristic when the catalog
// predates persisted statistics. Forced engines are never overridden.
const (
	Auto Engine = iota
	// ArrayEngine evaluates on the OLAP Array ADT (§4.1 / §4.2).
	ArrayEngine
	// StarJoinEngine evaluates with the relational StarJoin operator
	// (§4.3), filtering during the scan when selections are present.
	StarJoinEngine
	// BitmapEngine evaluates selections with the bitmap-index +
	// fact-file algorithm (§4.5); queries without selections fall back
	// to the star join, as in the paper.
	BitmapEngine
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case Auto:
		return "auto"
	case ArrayEngine:
		return "array"
	case StarJoinEngine:
		return "starjoin"
	case BitmapEngine:
		return "bitmap"
	default:
		return fmt.Sprintf("engine(%d)", int8(e))
	}
}

// QueryResult is the executor's output: result rows plus plan name,
// algorithm metrics, wall time, buffer pool I/O deltas, and the
// planner's explanation. For EXPLAIN queries only the plan fields are
// populated; nothing is executed.
type QueryResult struct {
	Rows       []core.Row
	GroupAttrs []string
	Aggs       []core.AggFunc
	Plan       string
	Metrics    core.Metrics
	Elapsed    time.Duration
	IO         storage.Stats
	// QueryID names this execution end to end: it appears in the trace,
	// the slow-query log, the flight recorder's /debug/queries profile,
	// and pprof labels. Carried in from the client's wire frame, or
	// minted here for embedded callers. Empty for EXPLAIN-only queries.
	QueryID string
	// Explanation describes the planning decision: estimated
	// selectivity, every candidate's cost, and the chosen plan tree.
	// After EXPLAIN ANALYZE its tree carries per-operator actuals.
	Explanation *Explanation
	// Trace is the span tree of this execution: admission wait (when
	// the server measured one), the cache probe, plan / execute / sort
	// phases, and — on sampled or TRACE-on queries — per-worker spans.
	// Nil for EXPLAIN-only queries.
	Trace *obs.Trace
	// Cached reports that Rows came from the result cache (or a
	// deduplicated concurrent execution) rather than a fresh engine run.
	// Metrics and IO then describe the execution that produced the rows;
	// Elapsed is this call's own wall time.
	Cached bool

	// entry is the result-cache entry that holds Rows — the one a hit
	// read, or the one this execution stored — and so owns their image.
	// Nil when the result is in no entry (cache off, or too big to keep).
	entry *cachedResult
	// ioStart is the pool's counters when the query began; IO is the
	// difference at its end.
	ioStart storage.Stats
}

// cachedResult is what the result cache retains per fingerprint: the
// materialized rows plus the metrics of the execution that produced
// them.
type cachedResult struct {
	rows    []core.Row
	metrics core.Metrics
	io      storage.Stats
	elapsed time.Duration

	// Where the entry lives, for charging the image to it.
	rc  *cache.ResultCache
	key string

	// image is rows as some consumer rendered them (see
	// QueryResult.Image), built by the first query that asks and
	// immutable afterwards; imageTag is the rendering's parameter.
	imageMu  sync.Mutex
	image    []byte
	imageTag int
}

// Image returns build(Rows). For a result held by a result-cache entry
// the rendering is done once, kept on the entry and charged to it in
// the cache's byte budget, so every later hit on the entry gets the
// same bytes back without touching the rows; tag names the rendering's
// parameters, and a caller asking under another tag gets its own build.
// The returned bytes are shared: read only.
//
// This is how the server keeps a result's encoded row frames beside its
// rows without the executor knowing the wire format.
func (qr *QueryResult) Image(tag int, build func(rows []core.Row) []byte) []byte {
	cr := qr.entry
	if cr == nil {
		return build(qr.Rows)
	}
	cr.imageMu.Lock()
	defer cr.imageMu.Unlock()
	if cr.image != nil && cr.imageTag == tag {
		return cr.image
	}
	img := build(cr.rows)
	if cr.image == nil && len(img) > 0 {
		cr.image, cr.imageTag = img, tag
		cr.rc.AddImage(cr.key, cr, int64(cap(img)))
	}
	return img
}

// resultBytes estimates the retained size of a materialized result.
func resultBytes(rows []core.Row) int64 {
	n := int64(0)
	for i := range rows {
		n += 48 // aggregate slots + slice header
		for _, g := range rows[i].Groups {
			n += int64(len(g)) + 16
		}
	}
	if n == 0 {
		n = 1 // empty results still occupy an entry
	}
	return n
}

// Executor plans and runs compiled queries against the objects in a
// catalog. It is a thin cursor over a shared ExecContext: all object
// handles live in the context, guarded, so executors are safe for
// concurrent use and cheap to create one per session.
type Executor struct {
	ctx *ExecContext

	// Slow-query logging: queries at or above slowMin are reported to
	// slowLog with their plan, counters, and I/O. Per-executor (i.e.
	// per-session) so sessions can opt in independently.
	slowLog *slog.Logger
	slowMin time.Duration

	// cacheOff opts this executor out of the shared query cache (the
	// session-level CACHE OFF switch). Atomic because a server session's
	// option frames race its in-flight query goroutines.
	cacheOff atomic.Bool

	// parallel is the session's intra-query parallel degree (the
	// PARALLEL n option): 0 = default to GOMAXPROCS, 1 = sequential.
	parallel atomic.Int32

	// traceOn is the session's TRACE switch: every query collects the
	// fully sampled span tree regardless of the database sampler.
	traceOn atomic.Bool
}

// NewExecutor creates an executor with its own fresh ExecContext.
func NewExecutor(bp *storage.BufferPool, cat *catalog.Catalog) *Executor {
	return &Executor{ctx: NewExecContext(bp, cat)}
}

// NewSessionExecutor creates an executor sharing an existing context —
// how DB.Session hands out per-session executors over one shared
// handle cache.
func NewSessionExecutor(ctx *ExecContext) *Executor {
	return &Executor{ctx: ctx}
}

// Context returns the executor's shared execution state.
func (e *Executor) Context() *ExecContext { return e.ctx }

// InvalidateHandles drops cached object handles; call after catalog
// mutations (new loads or builds).
func (e *Executor) InvalidateHandles() { e.ctx.InvalidateHandles() }

// DropCaches empties the buffer pool and invalidates all cached
// handles, emulating the paper's cold-cache measurement protocol.
func (e *Executor) DropCaches() error { return e.ctx.DropCaches() }

// HasArray reports whether an OLAP array is built.
func (e *Executor) HasArray() bool { return e.ctx.gen.Load().hasArray }

// HasBitmapIndexes reports whether bitmap indices cover every selection
// in spec.
func (e *Executor) HasBitmapIndexes(spec *query.Spec) bool {
	cat := e.ctx.Catalog()
	if cat.Schema == nil {
		return false
	}
	for _, s := range spec.Selections {
		d := cat.Schema.Dimensions[s.Dim]
		if _, ok := cat.BitmapIndexes[catalog.BitmapKey(d.Name, d.Attrs[s.Level])]; !ok {
			return false
		}
	}
	return true
}

// ExplainSQLContext parses, compiles, and plans a query without running
// it. A leading EXPLAIN keyword is accepted and ignored. Planning never
// blocks on I/O beyond the catalog, so the context is checked once up
// front.
func (e *Executor) ExplainSQLContext(ctx context.Context, sql string, engine Engine) (*Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := query.ParseAndCompile(sql, e.ctx.Catalog().Schema)
	if err != nil {
		return nil, err
	}
	_, expl, err := e.plan(e.ctx.gen.Load(), spec, engine, e.parallelDegree())
	return expl, err
}

// statement resolves sql to its statement: from g's memo when it holds
// this text as planned under the same engine and degree (hit), otherwise
// by parsing, compiling and planning it now and offering the outcome to
// the memo.
func (e *Executor) statement(g *generation, sql string, engine Engine) (st *statement, hit bool, err error) {
	k := stmtKey{sql: sql, engine: engine, workers: e.parallelDegree()}
	if st := g.memo.get(k); st != nil {
		return st, true, nil
	}
	spec, err := query.ParseAndCompile(sql, e.ctx.Catalog().Schema)
	if err != nil {
		return nil, false, err
	}
	if st, err = e.prepare(g, spec, engine, k.workers); err != nil {
		return nil, false, err
	}
	g.memo.put(k, st)
	return st, false, nil
}

// prepare plans a compiled query into a statement under g.
func (e *Executor) prepare(g *generation, spec *query.Spec, engine Engine, workers int) (*statement, error) {
	plan, expl, err := e.plan(g, spec, engine, workers)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(spec, plan)
	return &statement{
		spec: spec, plan: plan, expl: expl, est: expl.ChosenCost(),
		fingerprint: fp, fpHash: fingerprintHash(fp), reach: plan.reached(),
	}, nil
}

// SetCacheEnabled opts this executor in or out of the database's query
// cache. It is a per-executor (per-session) switch: with the cache off,
// queries neither probe nor populate the result cache and never join
// another query's singleflight. The shared chunk cache is unaffected.
func (e *Executor) SetCacheEnabled(on bool) { e.cacheOff.Store(!on) }

// SetTrace switches per-session tracing: with TRACE on, every query
// collects the fully sampled span tree (per-worker spans included) and
// the result carries it for rendering — the session-level override of
// the database's 1-in-N sampler.
func (e *Executor) SetTrace(on bool) { e.traceOn.Store(on) }

// TraceEnabled reports the session TRACE switch.
func (e *Executor) TraceEnabled() bool { return e.traceOn.Load() }

// SetSlowQueryLog turns on slow-query logging for this executor:
// queries running at or above min are reported to l with their plan,
// algorithm counters, and buffer pool I/O. A nil logger turns it off.
func (e *Executor) SetSlowQueryLog(l *slog.Logger, min time.Duration) {
	e.slowLog = l
	e.slowMin = min
}

// Execute runs a compiled query on the chosen engine. When the spec is
// an EXPLAIN (and not ANALYZE), the query is planned but not run, and
// the result carries only the plan fields.
func (e *Executor) Execute(spec *query.Spec, engine Engine) (*QueryResult, error) {
	ctx := context.Background()
	prof, tr, g := e.beginQuery(ctx, "")
	io := e.ctx.bp.Stats()
	planSp := tr.Root.Child("plan")
	st, err := e.prepare(g, spec, engine, e.parallelDegree())
	if err != nil {
		return nil, err
	}
	return e.run(ctx, prof, tr, planSp, st, g, io)
}

// ExecuteSQLContext parses, compiles, and executes a SQL-subset query —
// or, for a statement the memo has seen, goes straight from its text to
// the result-cache probe. A canceled ctx stops the operator loop at its
// next check (between chunk batches on the array side, every few
// thousand tuples on the relational side) and returns ctx's error — how
// a dropped client connection stops server-side work.
func (e *Executor) ExecuteSQLContext(ctx context.Context, sql string, engine Engine) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof, tr, g := e.beginQuery(ctx, sql)
	io := e.ctx.bp.Stats()
	planSp := tr.Root.Child("plan")
	st, hit, err := e.statement(g, sql, engine)
	if err != nil {
		return nil, err
	}
	prof.Memo = "miss"
	if hit {
		prof.Memo = "hit"
	}
	planSp.Set("memo", prof.Memo)
	return e.run(ctx, prof, tr, planSp, st, g, io)
}

// beginQuery opens a query's observable lifecycle: the flight-recorder
// profile every exit path of run publishes through finishQuery, and the
// trace — seeded with the server-measured admission wait when one rode
// in on the context's QueryTag — with its sampling decision made. It is
// also where the query takes its generation: whatever the catalog
// becomes while it runs, it finishes against this one.
func (e *Executor) beginQuery(ctx context.Context, sql string) (*obs.QueryProfile, *obs.Trace, *generation) {
	prof := &obs.QueryProfile{Start: time.Now(), SQL: sql}
	traceOn := e.traceOn.Load()
	if tag := obs.QueryTagFromContext(ctx); tag != nil {
		prof.QueryID = tag.ID
		prof.AdmissionWait = tag.AdmissionWait
		traceOn = traceOn || tag.TraceOn
	}
	if prof.QueryID == "" {
		prof.QueryID = obs.NewQueryID()
	}
	tr := obs.NewTrace("query")
	tr.SetSampled(traceOn || e.ctx.sampler.Sample())
	prof.Sampled = tr.Sampled()
	tr.Root.Set("query_id", prof.QueryID)
	if prof.AdmissionWait > 0 {
		tr.Root.ChildAt("admission-wait", prof.Start.Add(-prof.AdmissionWait), prof.AdmissionWait)
	}
	return prof, tr, e.ctx.gen.Load()
}

// run executes a resolved statement: result-cache probe, singleflight,
// engine. planSp is the open span that covered resolving st; g is the
// generation the query began, and st was resolved, under. The statement
// is shared with every other execution of the same text, so everything
// this run reports — the cache hit, ANALYZE's actuals — goes into its own
// copy of the explanation. io is the pool's counters when the query
// began: an execution's I/O includes what resolving the statement read.
func (e *Executor) run(ctx context.Context, prof *obs.QueryProfile, tr *obs.Trace, planSp *obs.Span,
	st *statement, g *generation, io storage.Stats) (*QueryResult, error) {
	planSp.End()
	prof.PlanTime = planSp.Duration
	spec, plan, est := st.spec, st.plan, st.est
	prof.Plan = plan.Name()
	prof.Engine = plan.Engine().String()
	expl := *st.expl
	if spec.Analyze {
		expl.Tree = st.expl.Tree.clone() // Annotate writes into it
	}
	qr := &QueryResult{
		QueryID:     prof.QueryID,
		GroupAttrs:  spec.GroupAttrs,
		Aggs:        spec.Aggs,
		Plan:        plan.Name(),
		Explanation: &expl,
		ioStart:     io,
	}
	qr.Metrics.EstCostIO = est.IO
	qr.Metrics.EstNS = est.NS
	qr.Metrics.EstRows = est.Rows
	if spec.Explain && !spec.Analyze {
		qr.QueryID = ""
		return qr, nil
	}
	expl.Memo = prof.Memo
	prof.EstIO = est.IO
	prof.EstRows = est.Rows

	// With live ingest, the fingerprint alone is not enough: two
	// executions of the same query can observe different delta states.
	// The suffix folds in the versions of the touched chunks the query
	// could read, so an ingest batch invalidates only the cached results
	// it could actually change; it is empty when nothing was ever
	// ingested, keeping legacy keys byte-identical.
	key := st.fingerprint
	prof.Fingerprint = st.fpHash
	probe := e.ctx.ingestView(g, st.reach)
	defer probe.release()
	if len(probe.hot) > 0 {
		key += probe.keySuffix("|cv", true)
		prof.Fingerprint = fingerprintHash(key)
	}

	prof.CacheEpoch = g.id
	rc := g.resCache
	if rc == nil || e.cacheOff.Load() {
		rqr, rerr := e.runPlan(ctx, tr, prof, st, qr, &probe)
		return e.finishQuery(tr, prof, rqr, rerr)
	}

	probeSp := tr.Root.Child("cache-probe")
	probeStart := time.Now()
	if v, ok := rc.Get(key); ok {
		st.rowsKey.cachedUnder(rc, key)
		probeSp.Set("hit", true)
		probeSp.End()
		prof.CacheHit = true
		prof.CacheWait = probeSp.Duration
		return e.finishQuery(tr, prof, cachedQueryResult(qr, v.(*cachedResult), g, time.Since(probeStart)), nil)
	}
	probeSp.Set("hit", false)
	probeSp.End()
	prof.CacheWait = probeSp.Duration

	// Miss: run under singleflight so N concurrent identical queries
	// execute the engine once and share the rows. The flight group is the
	// generation's, so a query begun after a swap never joins a flight
	// reading replaced objects.
	var leaderQR *QueryResult
	v, shared, err := g.flight.Do(ctx, key, func() (any, error) {
		// One view for the whole execution; the rows go under its key,
		// not the probe's, so a batch that landed in between is in both.
		view := e.ctx.ingestView(g, st.reach)
		defer view.release()
		view.rc, view.st = rc, st
		key := st.fingerprint + view.keySuffix("|cv", true)
		// Double-check under the flight: a goroutine that missed the
		// probe above may have become leader only after the previous
		// leader finished and populated the cache — serve that entry
		// instead of running the engine a second time.
		if v, ok := rc.Get(key); ok {
			return v.(*cachedResult), nil
		}
		lqr, err := e.runPlan(ctx, tr, prof, st, qr, &view)
		if err != nil {
			return nil, err
		}
		leaderQR = lqr
		cr := &cachedResult{
			rows:    lqr.Rows,
			metrics: lqr.Metrics,
			io:      lqr.IO,
			elapsed: lqr.Elapsed,
			rc:      rc,
			key:     key,
		}
		if rc.Put(key, cr, resultBytes(lqr.Rows), est.IO) {
			lqr.entry = cr
			st.rowsKey.cachedUnder(rc, key)
		}
		return cr, nil
	})
	if err != nil {
		return e.finishQuery(tr, prof, nil, err)
	}
	if !shared {
		if leaderQR != nil {
			return e.finishQuery(tr, prof, leaderQR, nil)
		}
		// Leader whose double-check probe hit: already counted as a
		// cache hit, not a deduplicated execution.
		prof.CacheHit = true
		prof.CacheWait += time.Since(probeStart)
		return e.finishQuery(tr, prof, cachedQueryResult(qr, v.(*cachedResult), g, time.Since(probeStart)), nil)
	}
	wait := time.Since(probeStart)
	tr.Root.ChildAt("singleflight-wait", probeStart, wait)
	prof.CacheHit = true
	prof.CacheWait += wait
	g.sfDedup.Inc() // set whenever resCache is
	g.sfWait.Observe(wait.Seconds())
	return e.finishQuery(tr, prof, cachedQueryResult(qr, v.(*cachedResult), g, wait), nil)
}

// finishQuery is the single exit for every executed (or failed) query,
// cached or fresh: it closes the trace, attaches it to the result,
// publishes the flight-recorder profile, and emits the slow-query log
// line with the correlation fields (query_id, cache_hit,
// parallel_degree) that join the three views of the same query.
func (e *Executor) finishQuery(tr *obs.Trace, prof *obs.QueryProfile, qr *QueryResult, err error) (*QueryResult, error) {
	tr.End()
	prof.Wall = time.Since(prof.Start)
	if err != nil {
		prof.Err = err.Error()
		e.ctx.recorder.Record(prof)
		return nil, err
	}
	prof.Rows = len(qr.Rows)
	prof.Degree = qr.Metrics.ParallelDegree
	prof.PhysicalReads = qr.IO.PhysicalReads
	prof.LogicalReads = qr.IO.LogicalReads
	prof.CacheHit = prof.CacheHit || qr.Cached
	qr.Trace = tr
	e.ctx.recorder.Record(prof)
	if e.slowLog != nil && qr.Elapsed >= e.slowMin {
		e.slowLog.Warn("slow query",
			slog.String("query_id", prof.QueryID),
			slog.String("sql", prof.SQL),
			slog.String("plan", qr.Plan),
			slog.String("engine", prof.Engine),
			slog.Duration("elapsed", qr.Elapsed),
			slog.Int("rows", len(qr.Rows)),
			slog.Bool("cache_hit", prof.CacheHit),
			slog.Int("parallel_degree", qr.Metrics.ParallelDegree),
			slog.Uint64("physical_reads", qr.IO.PhysicalReads),
			slog.Uint64("logical_reads", qr.IO.LogicalReads),
			slog.Float64("est_io", prof.EstIO),
			slog.Int64("est_rows", prof.EstRows),
		)
	}
	return qr, nil
}

// cachedQueryResult finishes qr from a cached (or deduplicated)
// execution: the shared rows plus the metrics and I/O of the run that
// produced them, with this call's own wall time. A served entry is not
// an engine execution — it is not counted in queries_<engine>_total,
// and EXPLAIN ANALYZE reports the hit instead of per-operator actuals.
// The trace it does carry (attached by finishQuery) shows the probe,
// not engine spans. g is the generation whose cache held the entry.
func cachedQueryResult(qr *QueryResult, cr *cachedResult, g *generation, elapsed time.Duration) *QueryResult {
	qr.Rows = cr.rows
	qr.entry = cr
	qr.Metrics = cr.metrics
	qr.IO = cr.io
	qr.Elapsed = elapsed
	qr.Cached = true
	qr.Explanation.CacheHit = true
	qr.Explanation.CacheEpoch = g.id
	return qr
}

// runPlan executes a planned query on its engine, filling qr with rows,
// metrics, I/O deltas, and (for ANALYZE) per-operator actuals. The
// engine runs under pprof labels (query_id / engine / fingerprint) so
// CPU profiles attribute samples to queries; worker goroutines inherit
// the labels through the context. Trace closing, profile recording,
// and slow-query logging happen in finishQuery, not here — the leader
// of a singleflight runs this while its followers wait outside.
func (e *Executor) runPlan(ctx context.Context, tr *obs.Trace, prof *obs.QueryProfile, st *statement, qr *QueryResult, view *ingestView) (*QueryResult, error) {
	spec, plan, est, expl := st.spec, st.plan, st.est, qr.Explanation
	start := time.Now()
	run := tr.Root.Child("execute")
	run.Set("plan", plan.Name())
	run.Set("engine", plan.Engine().String())
	var (
		res     *core.Result
		metrics core.Metrics
		err     error
	)
	pprof.Do(ctx, pprof.Labels(
		"query_id", prof.QueryID,
		"engine", plan.Engine().String(),
		"fingerprint", prof.Fingerprint,
	), func(ctx context.Context) {
		res, metrics, err = plan.Run(ctx, e.ctx, view)
	})
	run.End()
	prof.ExecTime = run.Duration
	if err != nil {
		return nil, err
	}
	if metrics.OverlayTouched > 0 {
		// Only a relational plan reports a fold, and its array-side
		// counters are the fold's: the last thing the engine did.
		prof.FoldTouched, prof.FoldChunks = metrics.OverlayTouched, metrics.ChunksRead
		prof.FoldProbes, prof.FoldScanned = metrics.Probes, metrics.CellsScanned
		prof.FoldTime = time.Duration(metrics.OverlayFoldNS)
		fold := run.ChildAt("overlay-fold", run.Start.Add(run.Duration-prof.FoldTime), prof.FoldTime)
		fold.Set("touched", prof.FoldTouched)
		fold.Set("folded", prof.FoldChunks)
		fold.Set("probes", prof.FoldProbes)
		fold.Set("scanned", prof.FoldScanned)
	}
	if metrics.ColdCube != "" { // the array plan cut the run at the hot chunks
		prof.Cold, prof.HotChunks = metrics.ColdCube, metrics.HotChunks
		run.Set("cold", prof.Cold)
		run.Set("hot_chunks", prof.HotChunks)
	}
	metrics.EstCostIO = est.IO
	metrics.EstNS = est.NS
	metrics.EstRows = est.Rows
	sortSp := tr.Root.Child("sort")
	qr.Rows = res.SortedRows()
	sortSp.End()
	prof.SortTime = sortSp.Duration
	// Rows are GC-heap copies; the cube and the query's decode scratch
	// live in the result's arena, which can be recycled now. The plan's
	// chunk readers died with plan.Run, so nothing still reads from it.
	res.Release()
	qr.Metrics = metrics
	qr.Elapsed = time.Since(start)
	qr.IO = e.ctx.BufferPool().Stats().Sub(qr.ioStart)
	run.Set("rows", len(qr.Rows))
	run.Set("physical_reads", qr.IO.PhysicalReads)
	prof.ArenaBytes = arena.BytesInUse()
	if tr.Sampled() {
		run.Set("logical_reads", qr.IO.LogicalReads)
		run.Set("arena_bytes", prof.ArenaBytes)
		// Per-worker fine spans, synthesized from the busy times the
		// merge phase collected — no hot-loop instrumentation.
		for w := 0; w < len(metrics.WorkerBusyNS); w++ {
			busy := time.Duration(metrics.WorkerBusyNS[w])
			ws := run.ChildAt("worker-"+strconv.Itoa(w), start, busy)
			if w < len(metrics.WorkerRows) {
				ws.Set("rows", metrics.WorkerRows[w])
			}
			if w < len(metrics.WorkerIO) {
				ws.Set("io", metrics.WorkerIO[w])
			}
		}
	}
	e.ctx.recordQuery(plan.Engine(), qr.Elapsed.Seconds())
	if metrics.ParallelDegree > 1 {
		e.ctx.parallelEff.Observe(metrics.ParallelEfficiency)
	}

	if spec.Analyze {
		plan.Annotate(&expl.Tree, RunStats{
			Metrics:    metrics,
			IO:         qr.IO,
			Elapsed:    qr.Elapsed,
			ResultRows: len(qr.Rows),
		})
		expl.Analyzed = true
	}
	return qr, nil
}

// fingerprintHash compresses a semantic fingerprint into the 16-hex
// form used as a pprof label and flight-recorder field — the full
// fingerprint spells out every predicate value and can be arbitrarily
// long.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return strconv.FormatUint(h.Sum64(), 16)
}
