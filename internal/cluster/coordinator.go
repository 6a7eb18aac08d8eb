// Package cluster is the sharded-olapd layer: a coordinator that owns a
// shard map (shard i of n over the engines' standard chunk-range /
// extent-range split), scatters one query as SubQuery frames to the
// shard servers over the wire protocol, and gathers the partial results
// with the same fold semantics the intra-query parallel workers use —
// per-group sums and counts add, mins and maxes compare — so the merged
// answer is bit-identical to a single-node run at any shard count.
//
// Every shard holds a full copy of the database; ownership is the
// logical restriction, not physical placement, exactly like a parallel
// worker's range. That makes the cluster a fan-out of the paper's §4
// algorithms across processes: the coordinator is the consolidation
// node, the shards are workers that happen to be across a socket.
//
// Failure handling: a shard that cannot be reached is retried with
// jittered exponential backoff (dial, connection, shutdown, and
// admission errors only — parse and execution errors are the query's
// fault and never retried). When retries are exhausted the query fails,
// unless the caller opted into PARTIAL mode: then the surviving shards'
// merge is returned together with a per-shard completeness report.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// Config tunes a Coordinator.
type Config struct {
	// Shards are the data server addresses; Shards[i] serves shard i of
	// len(Shards). At least one is required.
	Shards []string
	// Client tunes the per-shard connection pools.
	Client client.Config
	// MaxIdlePerShard caps idle pooled connections per shard; 0 selects 2.
	MaxIdlePerShard int
	// Retries is how many times one shard's sub-query is re-attempted
	// after a retryable failure (dial, connection, shutdown, admission);
	// 0 selects 2. Negative disables retry.
	Retries int
	// RetryBackoff is the base backoff before the first retry, doubled
	// each attempt and jittered to 0.5-1.5x so restarted shards are not
	// hammered in lockstep; 0 selects 100ms.
	RetryBackoff time.Duration
	// Workers overrides each shard's intra-query parallel degree per
	// sub-query; 0 keeps the shard server's own default.
	Workers int
	// Registry receives the coordinator's metrics (and, when it is served,
	// the server's); nil selects a fresh one.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxIdlePerShard <= 0 {
		c.MaxIdlePerShard = 2
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// ShardReport is one shard's entry in a query's completeness report —
// what PARTIAL mode returns alongside the surviving merge, rendered as
// JSON on the wire.
type ShardReport struct {
	Shard    int    `json:"shard"`
	Addr     string `json:"addr"`
	OK       bool   `json:"ok"`
	Rows     int    `json:"rows"`
	Attempts int    `json:"attempts"`
	WaitNS   int64  `json:"wait_ns"`
	Err      string `json:"err,omitempty"`
}

// Result is one distributed query's merged answer. The embedded
// client.Result is what a client of the coordinator receives: Plan is
// the cluster plan label scatter-gather[n](<shard plan>), Elapsed the
// whole distributed execution coordinator-side, QueryID the identity
// stamped into every shard's trace and flight recorder, Trace the
// coordinator's rendered scatter/gather span tree when tracing was
// requested, and Partial the report below as JSON when incomplete.
type Result struct {
	client.Result
	// ScatterNS is the slowest shard's sub-query wait (the scatter
	// barrier); GatherNS is the coordinator-side merge + sort.
	ScatterNS int64
	GatherNS  int64
	// Reports is the per-shard completeness report, one entry per shard
	// in shard order. Complete is true when every shard answered.
	Reports  []ShardReport
	Complete bool
}

// PartialJSON renders the completeness report for the wire's
// ResultDone.Partial field; empty when the result is complete.
func (r *Result) PartialJSON() string {
	if r.Complete {
		return ""
	}
	b, err := json.Marshal(r.Reports)
	if err != nil {
		return fmt.Sprintf(`[{"err":%q}]`, err.Error())
	}
	return string(b)
}

// Coordinator scatters queries across the shard servers and gathers the
// partials. Safe for concurrent use.
type Coordinator struct {
	cfg   Config
	pools []*client.Pool
	up    []atomic.Bool // last-known reachability, per shard

	queries  *obs.Counter
	partials *obs.Counter
	failures *obs.Counter
	retries  *obs.Counter
	scatterH *obs.Histogram
	gatherH  *obs.Histogram
}

// New creates a coordinator over the configured shard servers. No
// connection is made until the first query.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:   cfg,
		pools: make([]*client.Pool, len(cfg.Shards)),
		up:    make([]atomic.Bool, len(cfg.Shards)),
	}
	for i, addr := range cfg.Shards {
		co.pools[i] = client.NewPool(addr, cfg.Client, cfg.MaxIdlePerShard)
		co.up[i].Store(true) // optimistic until a sub-query says otherwise
	}
	reg := cfg.Registry
	co.queries = reg.Counter("cluster_queries_total", "distributed queries coordinated")
	co.partials = reg.Counter("cluster_queries_partial_total", "distributed queries answered partially")
	co.failures = reg.Counter("cluster_queries_failed_total", "distributed queries that failed")
	co.retries = reg.Counter("cluster_subquery_retries_total", "shard sub-query retry attempts")
	co.scatterH = reg.Histogram("cluster_scatter_seconds", "slowest shard sub-query wait per query", nil)
	co.gatherH = reg.Histogram("cluster_gather_seconds", "coordinator merge + sort time per query", nil)
	for i := range co.up {
		i := i
		reg.GaugeFunc(fmt.Sprintf("cluster_shard_up_%d", i),
			fmt.Sprintf("last-known reachability of shard %d (%s)", i, cfg.Shards[i]),
			func() float64 {
				if co.up[i].Load() {
					return 1
				}
				return 0
			})
	}
	return co, nil
}

// Shards reports the shard count.
func (co *Coordinator) Shards() int { return len(co.pools) }

// ShardAddr reports shard i's address.
func (co *Coordinator) ShardAddr(i int) string { return co.cfg.Shards[i] }

// ShardUp reports shard i's last-known reachability.
func (co *Coordinator) ShardUp(i int) bool { return co.up[i].Load() }

// Close closes every shard pool.
func (co *Coordinator) Close() {
	for _, p := range co.pools {
		p.Close()
	}
}

// retryable classifies a sub-query failure: infrastructure trouble
// (dial, broken connection, draining or overloaded server) is worth a
// retry; the query's own faults (parse, execution, protocol) and
// cancellation are permanent.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case client.IsCode(err, client.CodeParse),
		client.IsCode(err, client.CodeExec),
		client.IsCode(err, client.CodeProtocol),
		client.IsCode(err, client.CodeCanceled):
		return false
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		// Shutdown and admission rejections: the shard exists but cannot
		// take the query right now — retry after backoff.
		return ce.Code == client.CodeShutdown || ce.Code == client.CodeAdmission
	}
	// Dial errors, broken connections, handshake failures.
	return true
}

// subQueryShard runs one shard's sub-query with bounded jittered retry,
// filling its report. ctx cancellation aborts immediately (the pooled
// connection sends the Cancel frame to the shard).
func (co *Coordinator) subQueryShard(ctx context.Context, i int, sql string,
	engine client.Engine, qid string, workers int, rep *ShardReport) (*client.Result, error) {
	start := time.Now()
	defer func() { rep.WaitNS = time.Since(start).Nanoseconds() }()
	var lastErr error
	for attempt := 0; ; attempt++ {
		rep.Attempts = attempt + 1
		res, err := co.pools[i].SubQuery(ctx, sql, engine, qid, i, len(co.pools), workers)
		if err == nil {
			co.up[i].Store(true)
			rep.OK = true
			rep.Rows = len(res.Rows)
			return res, nil
		}
		lastErr = err
		co.up[i].Store(false)
		if ctx.Err() != nil || !retryable(err) || attempt >= co.cfg.Retries {
			rep.Err = err.Error()
			return nil, lastErr
		}
		co.retries.Inc()
		// Exponential backoff with the pool's jitter, so a fleet of
		// retries against a restarting shard spreads out.
		backoff := client.Jitter(co.cfg.RetryBackoff << uint(attempt))
		select {
		case <-ctx.Done():
			rep.Err = ctx.Err().Error()
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// resolveEngine pins the cluster-wide engine for one query. Auto is
// resolved by asking a live shard's planner (Explain) — every shard
// holds the same statistics, so any shard's choice is the cluster's —
// and the resolved engine is then forced in every SubQuery frame. One
// engine everywhere is a correctness requirement, not an optimization:
// shards restrict along their engine's own axis (chunks vs extents),
// so mixed engines would slice the fact data along different axes and
// double- or under-count.
func (co *Coordinator) resolveEngine(ctx context.Context, sql string, engine client.Engine) (client.Engine, string, error) {
	if engine != client.Auto {
		return engine, "", nil
	}
	var lastErr error
	for i := range co.pools {
		expl, err := co.pools[i].Explain(ctx, sql, client.Auto)
		if err != nil {
			lastErr = err
			if retryable(err) {
				co.up[i].Store(false)
				continue // failover to the next shard's planner
			}
			return client.Auto, "", err // the query itself is bad
		}
		co.up[i].Store(true)
		return expl.Engine, expl.Chosen, nil
	}
	return client.Auto, "", fmt.Errorf("cluster: no shard reachable to plan query: %w", lastErr)
}

// QueryOpts tunes one distributed query.
type QueryOpts struct {
	// Partial opts into partial answers: unreachable shards no longer
	// fail the query, the surviving shards' merge is returned, and
	// Result.Reports says which shards are missing.
	Partial bool
	// Trace collects the coordinator's scatter/gather span tree into
	// Result.Trace.
	Trace bool
	// Workers overrides the per-sub-query worker count for this query;
	// 0 falls back to Config.Workers.
	Workers int
	// TraceID, when non-empty, is the distributed query's identity (a
	// served client's minted ID); empty mints a fresh one.
	TraceID string
}

// Query runs sql across every shard and merges the partials; see
// QueryOpts for partial-answer, tracing, and worker overrides.
func (co *Coordinator) Query(ctx context.Context, sql string, engine client.Engine,
	opts QueryOpts) (*Result, error) {
	co.queries.Inc()
	partial, traceOn := opts.Partial, opts.Trace
	workers := opts.Workers
	if workers <= 0 {
		workers = co.cfg.Workers
	}
	start := time.Now()
	qid := opts.TraceID
	if qid == "" {
		qid = obs.NewQueryID()
	}
	tr := obs.NewTrace("cluster-query")
	tr.SetSampled(traceOn)
	tr.Root.Set("query_id", qid)
	tr.Root.Set("shards", len(co.pools))

	planSp := tr.Root.Child("resolve-engine")
	engine, _, err := co.resolveEngine(ctx, sql, engine)
	planSp.End()
	if err != nil {
		co.failures.Inc()
		return nil, err
	}

	n := len(co.pools)
	out := &Result{
		Result:  client.Result{Engine: engine, QueryID: qid},
		Reports: make([]ShardReport, n),
	}
	for i := range out.Reports {
		out.Reports[i] = ShardReport{Shard: i, Addr: co.cfg.Shards[i]}
	}

	// Scatter: one goroutine per shard, all under one cancelable
	// context so a caller cancel (or a served client's Cancel frame) fans
	// out to every shard as wire Cancel frames.
	scatterSp := tr.Root.Child("scatter")
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	partialsByShard := make([]*client.Result, n)
	errsByShard := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		sp := tr.Fine(scatterSp, fmt.Sprintf("shard-%d", i))
		go func() {
			defer wg.Done()
			partialsByShard[i], errsByShard[i] = co.subQueryShard(sctx, i, sql, engine, qid, workers, &out.Reports[i])
			sp.End()
		}()
	}
	wg.Wait()
	scatterSp.End()
	out.ScatterNS = scatterSp.Duration.Nanoseconds()
	co.scatterH.ObserveDuration(scatterSp.Duration)

	// Classify the failures before merging.
	okCount := 0
	var firstErr error
	var firstFailed int
	for i := 0; i < n; i++ {
		if errsByShard[i] == nil {
			okCount++
		} else if firstErr == nil {
			firstErr, firstFailed = errsByShard[i], i
		}
	}
	if okCount == 0 {
		co.failures.Inc()
		return nil, fmt.Errorf("cluster: all %d shards failed: shard %d (%s): %w",
			n, firstFailed, co.cfg.Shards[firstFailed], firstErr)
	}
	if okCount < n && !partial {
		co.failures.Inc()
		return nil, fmt.Errorf("cluster: shard %d (%s) failed (set PARTIAL on to accept %d/%d shards): %w",
			firstFailed, co.cfg.Shards[firstFailed], okCount, n, firstErr)
	}
	out.Complete = okCount == n
	if !out.Complete {
		co.partials.Inc()
	}

	// Gather: fold the partials in shard-index order. The fold is the
	// workerPartial merge over the wire: per group, sums and counts add,
	// mins and maxes compare — int64 addition is associative and
	// commutative, so the merged cells are bit-identical to a
	// single-node run whatever the shard count. Rows are then sorted
	// with Result.SortedRows's comparator; group tuples are unique after
	// the fold, so the order is total and deterministic.
	gatherSp := tr.Root.Child("gather")
	gatherStart := time.Now()
	var shardPlan string
	acc := make(map[string]int, 64)
	for i := 0; i < n; i++ {
		pr := partialsByShard[i]
		if pr == nil {
			continue
		}
		if shardPlan == "" {
			shardPlan = pr.Plan
			out.GroupAttrs = pr.GroupAttrs
			out.Aggs = pr.Aggs
		}
		for _, row := range pr.Rows {
			key := strings.Join(row.Groups, "\x00")
			if at, ok := acc[key]; ok {
				dst := &out.Rows[at]
				dst.Sum += row.Sum
				dst.Count += row.Count
				if row.Min < dst.Min {
					dst.Min = row.Min
				}
				if row.Max > dst.Max {
					dst.Max = row.Max
				}
			} else {
				acc[key] = len(out.Rows)
				out.Rows = append(out.Rows, row)
			}
		}
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		a, b := out.Rows[i].Groups, out.Rows[j].Groups
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	gatherSp.End()
	out.GatherNS = time.Since(gatherStart).Nanoseconds()
	co.gatherH.ObserveDuration(gatherSp.Duration)

	out.Plan = fmt.Sprintf("scatter-gather[%d](%s)", n, shardPlan)
	out.Elapsed = time.Since(start)
	tr.End()
	if traceOn {
		out.Trace = tr.String()
	}
	out.Partial = out.PartialJSON()
	return out, nil
}

// Explain forwards the query to a live shard's planner and prefixes the
// cluster's own plan line, so EXPLAIN against the coordinator shows
// both the scatter topology and the per-shard plan.
func (co *Coordinator) Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error) {
	var lastErr error
	for i := range co.pools {
		expl, err := co.pools[i].Explain(ctx, sql, engine)
		if err != nil {
			lastErr = err
			if retryable(err) {
				co.up[i].Store(false)
				continue
			}
			return nil, err
		}
		co.up[i].Store(true)
		return &client.Explanation{
			Chosen: fmt.Sprintf("scatter-gather[%d](%s)", len(co.pools), expl.Chosen),
			Engine: expl.Engine,
			Text: fmt.Sprintf("cluster: scatter-gather over %d shards  (planned on shard %d)\n%s",
				len(co.pools), i, expl.Text),
		}, nil
	}
	return nil, fmt.Errorf("cluster: no shard reachable to plan query: %w", lastErr)
}

// Ping checks every shard, returning the number reachable.
func (co *Coordinator) Ping(ctx context.Context) int {
	okCount := 0
	for i := range co.pools {
		c, err := co.pools[i].Get(ctx)
		if err != nil {
			co.up[i].Store(false)
			continue
		}
		co.pools[i].Put(c)
		co.up[i].Store(true)
		okCount++
	}
	return okCount
}
