package exec

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/array"
	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/factfile"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ExecContext is the shared execution state of one open database: the
// buffer pool, the catalog, and the current catalog generation. One
// ExecContext is created per database; every executor (the DB's own and
// one per Session) plans and runs against it, so dimension tables, the
// fact file, and the array's master structures are opened once and
// shared.
type ExecContext struct {
	bp  *storage.BufferPool
	cat *catalog.Catalog
	reg *obs.Registry

	// Shared query instruments: one histogram of wall times plus one
	// counter per engine family, recorded by every executor's Execute.
	queryLatency *obs.Histogram
	// parallelEff records the per-query parallel efficiency (busy-time
	// balance across workers) for queries that actually fanned out.
	parallelEff *obs.Histogram

	// Query-lifecycle tracing: the flight recorder keeps the last N
	// completed queries' profiles (served at /debug/queries); the
	// sampler decides which queries collect fine-grained spans. Both
	// are shared database-wide.
	recorder *obs.FlightRecorder
	sampler  *obs.Sampler

	// gen is the current generation. A query loads it once, when it
	// begins, and takes everything catalog-dependent from that object.
	gen atomic.Pointer[generation]

	// mu serialises swap.
	mu sync.Mutex

	// ds, when set, is the HTAP delta overlay store and the one publisher
	// of the array state. A query reads the master of its view's state
	// through readers under the view's overlay (merge-on-read) and
	// versions (fine-grained chunk-cache invalidation); the executor folds
	// the versions into result-cache keys. Set once at open, before
	// queries run; nil in contexts built directly in tests.
	ds *delta.Store
}

// generation is everything an execution takes from the catalog as it
// stood when the execution began: the object handles, opened on first
// use, the statements planned against them, and the caches of what was
// computed from them. A catalog change edits none of it; it installs a
// fresh generation (swap). An execution that began under the old one
// finishes against the old one, and whatever it deposits there — rows,
// images, cold cubes, decoded chunks — can never be probed by a query
// that began later: there is no tag to compare and none to forget.
// The old generation is garbage once its last execution returns.
type generation struct {
	// id counts swaps. Display only: Generation(), QueryProfile.CacheEpoch
	// and EXPLAIN ANALYZE's "cache: hit (epoch N)".
	id uint64

	memo   stmtMemo
	flight cache.Group

	// The mid-tier query cache, budget bytes split evenly between the
	// semantic result cache and the decoded-chunk cache the generation's
	// array readers consult; nil while budget is 0. The singleflight instruments
	// are carried from generation to generation once the cache was on.
	budget     int64
	resCache   *cache.ResultCache
	chunkCache *cache.ChunkCache
	sfDedup    *obs.Counter
	sfWait     *obs.Histogram
	hasArray   bool // an array was built at the swap; compaction never adds or drops one

	// Dimension tables, fact files, B-trees and the chunk store are read
	// without mutable state, so the handles are shared by every
	// goroutine; each reads arr's chunks through its own chunk.Reader.
	mu       sync.Mutex
	dims     []*catalog.DimensionTable
	ff       *factfile.File
	arr      *array.Array
	arrState uint64
}

// NewExecContext creates the shared execution state for a catalog,
// including the metrics registry every layer reports into: the buffer
// pool's counters and read-latency histogram, the process-wide B-tree
// and bitmap counters, and the query counters the executor maintains.
func NewExecContext(bp *storage.BufferPool, cat *catalog.Catalog) *ExecContext {
	reg := obs.NewRegistry()
	bp.Instrument(reg)
	reg.CounterFunc("btree_node_reads_total",
		"B-tree node pages fetched (process-wide)", btree.NodeReads)
	reg.CounterFunc("bitmap_logical_ops_total",
		"bitmap AND/OR/ANDNOT/NOT operations (process-wide)", bitmap.LogicalOps)
	reg.CounterFunc("bitmap_index_reads_total",
		"bitmaps fetched from stored join indexes (process-wide)", bitmap.IndexReads)
	reg.GaugeFunc("parallel_workers_in_use",
		"intra-query workers currently running (process-wide)",
		func() float64 { return float64(core.ActiveWorkers()) })
	reg.GaugeFunc("arena_bytes_in_use",
		"bytes handed out by live query arenas (process-wide)",
		func() float64 { return float64(arena.BytesInUse()) })
	reg.CounterFunc("arena_resets_total",
		"query arenas recycled instead of garbage collected (process-wide)", arena.Resets)
	c := &ExecContext{
		bp:           bp,
		cat:          cat,
		reg:          reg,
		queryLatency: reg.Histogram("query_seconds", "query wall time", nil),
		parallelEff: reg.Histogram("parallel_efficiency",
			"per-query parallel efficiency: worker busy-time sum / (degree x slowest worker)",
			[]float64{0.25, 0.5, 0.75, 0.9, 0.95, 1}),
		recorder: obs.NewFlightRecorder(obs.DefaultFlightRecorderSize, obs.DefaultFlightRecorderTopK),
		sampler:  obs.NewSampler(DefaultTraceSampleEvery),
	}
	c.gen.Store(&generation{memo: stmtMemo{seen: newSightings()}, hasArray: cat.ArrayState != 0})
	return c
}

// DefaultTraceSampleEvery is the default fine-grained span sampling
// rate: 1 in this many queries collects per-worker spans. Coarse spans
// and the flight recorder cover every query regardless; TRACE on
// bypasses sampling for its session.
const DefaultTraceSampleEvery = 64

// FlightRecorder returns the database-wide recorder of completed-query
// profiles.
func (c *ExecContext) FlightRecorder() *obs.FlightRecorder { return c.recorder }

// TraceSampler returns the fine-grained span sampler, so callers can
// retune the rate (0 disables sampling).
func (c *ExecContext) TraceSampler() *obs.Sampler { return c.sampler }

// QueryLatency reports the shared wall-time histogram's count and
// bucket-interpolated p50/p95/p99 estimates, in seconds.
func (c *ExecContext) QueryLatency() (count int64, p50, p95, p99 float64) {
	h := c.queryLatency
	return h.Count(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// BufferPool returns the underlying buffer pool.
func (c *ExecContext) BufferPool() *storage.BufferPool { return c.bp }

// Registry returns the metrics registry shared by every layer of this
// database instance.
func (c *ExecContext) Registry() *obs.Registry { return c.reg }

// recordQuery records one completed query into the shared instruments.
func (c *ExecContext) recordQuery(engine Engine, elapsed float64) {
	c.reg.Counter("queries_"+engine.String()+"_total",
		"queries executed on the "+engine.String()+" engine").Inc()
	c.queryLatency.Observe(elapsed)
}

// Catalog returns the shared catalog.
func (c *ExecContext) Catalog() *catalog.Catalog { return c.cat }

// statsGen is the planner statistics' generation: a plan, a memoised
// statement or a cached result made under one is not reused under
// another.
func (c *ExecContext) statsGen() int64 {
	if st := c.cat.Stats; st != nil {
		return st.CollectedUnix
	}
	return 0
}

// Generation returns the current generation's ordinal; it increases
// every time the generation is replaced.
func (c *ExecContext) Generation() uint64 { return c.gen.Load().id }

// keepBudget tells swap to give the new generation the old one's cache
// budget.
const keepBudget = -1

// swap replaces the current generation: the one way anything that
// depends on the catalog — handles, memoised statements, cached results
// and decoded chunks, in-flight deduplication — is retired. The retired
// caches' entries are released now rather than with the last old
// execution, and counted in cache_*_invalidated_total.
func (c *ExecContext) swap(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.gen.Load()
	if budget == keepBudget {
		budget = old.budget
	}
	g := &generation{
		id:       old.id + 1,
		memo:     stmtMemo{seen: old.memo.seen},
		budget:   budget,
		sfDedup:  old.sfDedup,
		sfWait:   old.sfWait,
		hasArray: c.ingestView(old, nil).d.State != 0,
	}
	if budget > 0 {
		half := budget / 2
		g.resCache = cache.NewResultCache(half, c.reg)
		g.chunkCache = cache.NewChunkCache(budget-half, c.reg)
		g.sfDedup = c.reg.Counter("cache_singleflight_dedup_total",
			"queries that piggybacked on an identical in-flight execution")
		g.sfWait = c.reg.Histogram("cache_singleflight_wait_seconds",
			"time deduplicated queries waited for the leader's result", nil)
	}
	c.gen.Store(g)
	if old.resCache != nil {
		old.resCache.Clear()
		old.chunkCache.Clear()
	}
}

// EnableQueryCache turns on the mid-tier query cache, splitting
// totalBytes evenly between the semantic result cache and the
// decoded-chunk cache. totalBytes <= 0 disables both (existing entries
// are released; counters persist). Safe to call again to resize: a
// resize starts from empty caches.
func (c *ExecContext) EnableQueryCache(totalBytes int64) {
	if totalBytes > 0 {
		// Gauges read through the context so a later disable reports zero
		// instead of a stale cache's last values.
		gauge := func(name, help string, read func(*cache.ResultCache, *cache.ChunkCache) int) {
			c.reg.GaugeFunc(name, help, func() float64 {
				if g := c.gen.Load(); g.resCache != nil {
					return float64(read(g.resCache, g.chunkCache))
				}
				return 0
			})
		}
		gauge("cache_result_bytes", "bytes retained by the result cache",
			func(rc *cache.ResultCache, _ *cache.ChunkCache) int { return int(rc.Bytes()) })
		gauge("cache_result_image_bytes", "bytes of cache_result_bytes that are encoded row-frame images",
			func(rc *cache.ResultCache, _ *cache.ChunkCache) int { return int(rc.ImageBytes()) })
		gauge("cache_cold_bytes", "bytes of cache_result_bytes that are cold cubes: never-touched chunks, pre-aggregated",
			func(rc *cache.ResultCache, _ *cache.ChunkCache) int { return int(rc.ColdBytes()) })
		gauge("cache_result_entries", "entries in the result cache",
			func(rc *cache.ResultCache, _ *cache.ChunkCache) int { return rc.Len() })
		gauge("cache_chunk_bytes", "decoded bytes retained by the chunk cache",
			func(_ *cache.ResultCache, cc *cache.ChunkCache) int { return int(cc.Bytes()) })
		gauge("cache_chunk_entries", "decoded chunks retained by the chunk cache",
			func(_ *cache.ResultCache, cc *cache.ChunkCache) int { return cc.Len() })
	}
	c.swap(max(totalBytes, 0))
}

// CacheStats snapshots both cache layers (zero-valued when disabled)
// and the singleflight dedup count.
func (c *ExecContext) CacheStats() (result, chunk cache.Stats, dedup int64, enabled bool) {
	g := c.gen.Load()
	if g.resCache != nil {
		result, chunk = g.resCache.Stats(), g.chunkCache.Stats()
	}
	if g.sfDedup != nil {
		dedup = g.sfDedup.Value()
	}
	return result, chunk, dedup, g.resCache != nil
}

// InvalidateHandles announces a catalog mutation (a load, a build, a
// commit): subsequent queries reopen the replaced objects, re-plan, and
// find none of what was cached before.
func (c *ExecContext) InvalidateHandles() { c.swap(keepBudget) }

// DropCaches is the paper's cold-cache measurement protocol: a fresh
// generation — so the next query re-parses, re-plans, re-opens the
// master structures and finds both query-cache layers empty — over an
// emptied buffer pool, so it re-reads them too.
func (c *ExecContext) DropCaches() error {
	c.swap(keepBudget)
	return c.bp.DropAll()
}

// SetDeltaStore attaches the HTAP delta overlay store, seeded with the
// catalog's array state. Call once at open, before queries run.
func (c *ExecContext) SetDeltaStore(ds *delta.Store) {
	ds.Publish(c.cat.ArrayState)
	c.ds = ds
}

// dimensions returns the shared dimension table handles, opening them on
// first use.
func (g *generation) dimensions(c *ExecContext) ([]*catalog.DimensionTable, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dims == nil {
		dims, err := OpenDimensions(c.bp, c.cat)
		if err != nil {
			return nil, err
		}
		g.dims = dims
	}
	return g.dims, nil
}

// factFile returns the shared fact file handle, opening it on first use.
func (g *generation) factFile(c *ExecContext) (*factfile.File, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ff == nil {
		ff, err := OpenFactFile(c.bp, c.cat)
		if err != nil {
			return nil, err
		}
		g.ff = ff
	}
	return g.ff, nil
}

// master returns the shared master array at state, opening it unless the
// one slot holds that state (views differ only while a compaction
// publishes). Its chunks are read through readers (ingestView.array).
func (g *generation) master(c *ExecContext, state uint64) (*array.Array, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.arr == nil || g.arrState != state {
		arr, err := openArray(c.bp, state)
		if err != nil {
			return nil, err
		}
		g.arr, g.arrState = arr, state
	}
	return g.arr, nil
}

// Array returns the master OLAP array of the current instant and the
// chunk view its readers read it under: with a delta store attached,
// the overlay and versions of one published view, so every read yields
// (base + deltas as of this call), stable against concurrent ingest and
// compaction. Nothing is copied; the array and the view are shared and
// read-only.
func (c *ExecContext) Array() (*array.Array, chunk.View, error) {
	v := c.ingestView(c.gen.Load(), nil)
	return v.array(c)
}

// ingestView is what one execution sees of live ingest: one published
// delta view — array state, overlay, versions and ever-touched list of
// one instant — so the base, the engines, the decoded-chunk cache tags
// and the rows' key cannot disagree on a batch or a compaction that
// landed in between; and that view's touched list narrowed to the
// statement's reach.
type ingestView struct {
	g   *generation // what the execution began under: its handles, its chunk cache
	d   *delta.View // shared, read-only
	hot []int       // ever-touched chunks the statement can reach, ascending

	// rc, when set, is where an array run cut at hot keeps the cube of
	// the other chunks: under st's fingerprint and the hot list. Nil runs
	// uncut.
	rc *cache.ResultCache
	st *statement
}

// ingestView takes the view of an execution under g of a statement with
// that reach. It copies nothing but the narrowed hot list.
func (c *ExecContext) ingestView(g *generation, reach *chunkReach) (v ingestView) {
	v.g = g
	if c.ds != nil {
		v.d = c.ds.View()
	} else {
		v.d = &delta.View{State: c.cat.ArrayState} // nothing moves it without a delta store
	}
	v.hot = reach.narrow(c, &v)
	return v
}

// array returns the master at v's state, from v's generation, and the
// chunk view its readers take: v's overlay and versions over the
// generation's decoded-chunk cache.
func (v *ingestView) array(c *ExecContext) (*array.Array, chunk.View, error) {
	arr, err := v.g.master(c, v.d.State)
	if err != nil {
		return nil, chunk.View{}, err
	}
	cv := chunk.View{Overlay: v.d.Overlay, Versions: v.d.Versions}
	if cc := v.g.chunkCache; cc != nil {
		cv.Cache = cc
	}
	return arr, cv, nil
}

// keySuffix extends a result-cache key under live ingest: tag plus a
// hash of the hot chunks and, versioned, of each one's version. The
// rows' key carries the versioned one — a batch landing outside the
// statement's reach cannot change its result, so the key (and the
// entry) survives it. Empty when nothing in reach was ever ingested
// into: such keys stay byte-identical to the pre-delta format.
func (v *ingestView) keySuffix(tag string, versioned bool) string {
	if len(v.hot) == 0 {
		return ""
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, cn := range v.hot {
		binary.LittleEndian.PutUint64(buf[:], uint64(cn))
		h.Write(buf[:])
		if versioned {
			binary.LittleEndian.PutUint64(buf[:], v.d.Versions[cn])
			h.Write(buf[:])
		}
	}
	return tag + strconv.FormatUint(h.Sum64(), 16)
}

// chunkReach is the set of chunks a statement's selections can read:
// the §4.2 candidate chunks. Only a new generation changes them, so
// they are resolved once, the first time live ingest makes anyone ask,
// and kept with the statement; the result-cache key suffix and the
// relational engines' overlay fold both narrow the touched set by them.
type chunkReach struct {
	sels []core.Selection
	once sync.Once
	cand []int // ascending
	all  bool  // the lookup failed: no narrowing

	// last is the touched list narrowed most recently and what it
	// narrowed to. A delta view's touched list is immutable and replaced
	// whole only when a chunk is first touched, so the statement's next
	// runs under the same list neither filter nor allocate.
	last atomic.Pointer[narrowed]
}

type narrowed struct{ touched, hot []int }

// narrow filters v's touched list (ascending, shared) down to the
// chunks the statement can reach. The result is shared and read-only. A
// nil reach, no selections, or a failed lookup keep the whole set,
// which is always correct; nothing touched asks nothing, so a database
// without ingest never pays the index-list lookups.
func (r *chunkReach) narrow(c *ExecContext, v *ingestView) []int {
	touched := v.d.Touched
	if r == nil || len(r.sels) == 0 || len(touched) == 0 {
		return touched
	}
	r.once.Do(func() {
		arr, err := v.g.master(c, v.d.State)
		if err == nil {
			r.cand, err = core.SelectionChunks(arr, r.sels)
		}
		r.all = err != nil
	})
	if r.all {
		return touched
	}
	if n := r.last.Load(); n != nil && len(n.touched) == len(touched) && &n.touched[0] == &touched[0] {
		return n.hot
	}
	n := &narrowed{touched: touched}
	for _, cn := range touched {
		if _, ok := slices.BinarySearch(r.cand, cn); ok {
			n.hot = append(n.hot, cn)
		}
	}
	r.last.Store(n)
	return n.hot
}

// size is how many chunks the statement reaches. Call after narrow.
func (r *chunkReach) size(arr *array.Array) int {
	if r == nil || len(r.sels) == 0 || r.all {
		return arr.Geometry().NumChunks()
	}
	return len(r.cand)
}
