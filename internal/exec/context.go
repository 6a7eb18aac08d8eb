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

	// mu serialises swap, and guards cat.ArrayState, which the compactor
	// moves under running queries (SwapArrayState).
	mu sync.Mutex

	// ds, when set, is the HTAP delta overlay store. Query clones attach
	// its snapshot (merge-on-read) and its per-chunk version vector
	// (fine-grained chunk-cache invalidation); the executor folds the
	// version vector into result-cache keys. Set once at open, before
	// queries run; nil when ingest is not wired up (contexts built
	// directly in tests).
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
	// semantic result cache and the decoded-chunk cache attached to
	// array clones; nil while budget is 0. The singleflight instruments
	// are carried from generation to generation once the cache was on.
	budget     int64
	resCache   *cache.ResultCache
	chunkCache *cache.ChunkCache
	sfDedup    *obs.Counter
	sfWait     *obs.Histogram

	// Dimension tables, fact files, and B-trees are read without mutable
	// state, so the handles can be used from many goroutines. The chunk
	// store's decode cache is the one share-unsafe piece; only clones of
	// arr are handed out.
	mu   sync.Mutex
	dims []*catalog.DimensionTable
	ff   *factfile.File
	arr  *array.Array
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
	c.gen.Store(&generation{memo: stmtMemo{seen: newSightings()}})
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
		id:      old.id + 1,
		memo:    stmtMemo{seen: old.memo.seen},
		budget:  budget,
		sfDedup: old.sfDedup,
		sfWait:  old.sfWait,
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

// SetDeltaStore attaches the HTAP delta overlay store. Call once at
// open, before queries run.
func (c *ExecContext) SetDeltaStore(ds *delta.Store) { c.ds = ds }

// ArrayState reports the catalog's current array master reference,
// read under the lock — the compactor swaps it concurrently with
// queries (SwapArrayState), so readers must come through here rather
// than touching the catalog field directly.
func (c *ExecContext) ArrayState() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cat.ArrayState
}

// SwapArrayState publishes a compacted array version: the catalog's
// master reference is replaced and the current generation's array handle
// dropped, but the generation itself stays — the merged content every
// reader observes is unchanged (deltas moved from overlay to base), so
// every cache entry and every relational handle stays exactly as valid
// as it was.
func (c *ExecContext) SwapArrayState(state uint64) {
	c.mu.Lock()
	c.cat.ArrayState = state
	g := c.gen.Load()
	c.mu.Unlock()
	g.mu.Lock()
	g.arr = nil
	g.mu.Unlock()
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

// master opens (if needed) and returns the shared master array. Only its
// immutable structures — dimension maps and geometry — may be read
// through the returned handle; reads that decode chunks go through a
// clone (arrayCloneWith).
func (g *generation) master(c *ExecContext) (*array.Array, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.arr == nil {
		c.mu.Lock() // OpenArray reads cat.ArrayState
		arr, err := OpenArray(c.bp, c.cat)
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		g.arr = arr
	}
	return g.arr, nil
}

// ArrayClone returns a private clone of the OLAP array: the master copy
// (dimension maps, B-trees, chunk directory) is opened once and shared;
// the clone carries its own chunk-decode cache so the caller can read
// without synchronizing with other queries. With a delta store
// attached, the clone also carries an immutable overlay snapshot, so
// every read through it yields (base + deltas as of clone time), stable
// against concurrent ingest and compaction.
func (c *ExecContext) ArrayClone() (*array.Array, error) {
	v := c.ingestView(c.gen.Load(), nil, true)
	return c.arrayCloneWith(&v)
}

// ingestView is what one execution sees of live ingest: the overlay,
// version vector and ever-touched list of one instant — so the engines,
// the decoded-chunk cache tags and the rows' key cannot disagree on a
// batch that landed in between — the last narrowed to the statement's
// reach. The zero value: nothing was ever ingested.
type ingestView struct {
	g        *generation // what the execution began under: its handles, its chunk cache
	ov       map[int][]chunk.OverlayCell
	versions map[int]uint64
	hot      []int // ever-touched chunks the statement can reach, ascending

	// rc, when set, is where an array run cut at hot keeps the cube of
	// the other chunks: under st's fingerprint and the hot list. Nil runs
	// uncut.
	rc *cache.ResultCache
	st *statement
}

// ingestView takes the view of an execution under g of a statement with
// that reach. A cache probe needs only the key: it asks for no overlay
// and copies none.
func (c *ExecContext) ingestView(g *generation, reach *chunkReach, overlay bool) (v ingestView) {
	v.g = g
	switch ds := c.ds; {
	case ds == nil:
	case overlay:
		v.ov, v.versions, v.hot = ds.Snapshot()
	default:
		v.versions, v.hot = ds.Versions()
	}
	v.hot = reach.narrow(c, g, v.hot)
	return v
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
			binary.LittleEndian.PutUint64(buf[:], v.versions[cn])
			h.Write(buf[:])
		}
	}
	return tag + strconv.FormatUint(h.Sum64(), 16)
}

// arrayCloneWith clones v's generation's master array over v's overlay
// and version vector.
func (c *ExecContext) arrayCloneWith(v *ingestView) (*array.Array, error) {
	arr, err := v.g.master(c)
	if err != nil {
		return nil, err
	}
	cl := arr.Clone()
	if len(v.ov) > 0 {
		cl.Store().SetOverlay(v.ov)
	}
	if cc := v.g.chunkCache; cc != nil {
		// Bound to the version vector of the same instant as the overlay:
		// a clone racing an ingest batch populates entries tagged so that
		// no later probe accepts them.
		cl.Store().SetDecodedCache(cc.View(v.versions))
	}
	return cl, nil
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
}

// narrow filters touched (ascending, the caller's own) down to the
// chunks the statement can reach. A nil reach, no selections, or a
// failed lookup keep the whole set, which is always correct; nothing
// touched asks nothing, so a database without ingest never pays the
// index-list lookups.
func (r *chunkReach) narrow(c *ExecContext, g *generation, touched []int) []int {
	if r == nil || len(r.sels) == 0 || len(touched) == 0 {
		return touched
	}
	r.once.Do(func() {
		arr, err := g.master(c)
		if err == nil {
			r.cand, err = core.SelectionChunks(arr, r.sels)
		}
		r.all = err != nil
	})
	if r.all {
		return touched
	}
	out := touched[:0]
	for _, cn := range touched {
		if _, ok := slices.BinarySearch(r.cand, cn); ok {
			out = append(out, cn)
		}
	}
	return out
}

// size is how many chunks the statement reaches. Call after narrow.
func (r *chunkReach) size(arr *array.Array) int {
	if r == nil || len(r.sels) == 0 || r.all {
		return arr.Geometry().NumChunks()
	}
	return len(r.cand)
}
