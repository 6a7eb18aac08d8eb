// Package repro is an array-based OLAP engine reproducing Zhao,
// Ramasamy, Naughton, and Tufte, "Array-Based Evaluation of
// Multi-Dimensional Queries in Object-Relational Database Systems"
// (ICDE 1998).
//
// The engine stores a star schema two ways side by side — relationally
// (dimension heap tables + an extent-based fact file with bitmap join
// indices) and as the paper's OLAP Array ADT (a chunked, chunk-offset-
// compressed multi-dimensional array with per-dimension B-trees and
// IndexToIndex hierarchy arrays) — and evaluates consolidation queries
// with either family of algorithms:
//
//	db, _ := repro.Open(repro.Options{Path: "sales.db"})
//	defer db.Close()
//	db.CreateStarSchema(schema)
//	db.LoadDimension("store", rows)
//	db.LoadFacts(facts)
//	db.BuildArray(repro.ArrayConfig{})
//	res, _ := db.Query(`select sum(volume), city from fact, store
//	                    group by city`)
//
// Everything sits on a paged storage substrate (buffer pool, blobs,
// extents, WAL) playing the role SHORE played for Paradise in the paper.
package repro

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Re-exported schema types: the public API speaks the catalog's types.
type (
	// StarSchema describes a complete star schema.
	StarSchema = catalog.StarSchema
	// DimensionSchema describes one dimension table.
	DimensionSchema = catalog.DimensionSchema
	// FactSchema describes the fact table.
	FactSchema = catalog.FactSchema
	// Row is one result group with its aggregate state.
	Row = core.Row
	// FactSource streams fact tuples into LoadFacts.
	FactSource = exec.FactSource
	// ArrayConfig controls BuildArray.
	ArrayConfig = exec.ArrayBuildConfig
	// Engine selects the evaluation strategy for QueryOn.
	Engine = exec.Engine
	// Result is a query result with rows, plan, metrics, and timing.
	Result = exec.QueryResult
	// Explanation is the planner's account of a query: estimated
	// selectivity, candidate plan costs, and the chosen plan tree.
	Explanation = exec.Explanation
	// PlanDesc is one operator of an EXPLAIN plan tree.
	PlanDesc = exec.PlanDesc
	// Cost is a plan cost estimate (page I/O + CPU page-equivalents).
	Cost = exec.Cost
	// Stats are buffer pool I/O counters.
	Stats = storage.Stats
	// WALStats are write-ahead log counters.
	WALStats = wal.Stats
	// AggFunc selects an aggregate function.
	AggFunc = core.AggFunc
	// MetricsSnapshot is a point-in-time copy of every engine metric.
	MetricsSnapshot = obs.Snapshot
	// Trace is the span tree recorded for one query execution.
	Trace = obs.Trace
	// QueryProfile is one completed query's flight-recorder record.
	QueryProfile = obs.QueryProfile
	// FlightRecorder is the ring of recent query profiles plus the
	// retained slowest set.
	FlightRecorder = obs.FlightRecorder
	// CacheStats are one cache layer's cumulative counters.
	CacheStats = cache.Stats
)

// Aggregate functions, re-exported for reading Result rows.
const (
	Sum   = core.Sum
	Count = core.Count
	Min   = core.Min
	Max   = core.Max
	Avg   = core.Avg
)

// Evaluation engines.
const (
	// Auto lets the cost-based planner choose the cheapest runnable
	// plan from the catalog's load-time statistics.
	Auto = exec.Auto
	// ArrayEngine forces the OLAP Array algorithms (§4.1/§4.2).
	ArrayEngine = exec.ArrayEngine
	// StarJoinEngine forces the relational StarJoin operator (§4.3).
	StarJoinEngine = exec.StarJoinEngine
	// BitmapEngine forces the bitmap-index + fact-file plan (§4.5).
	BitmapEngine = exec.BitmapEngine
)

// Options configures Open.
type Options struct {
	// Path locates the database volume; empty opens an in-memory
	// database (tests, examples, CPU-bound benchmarks).
	Path string
	// BufferPoolBytes sizes the buffer pool; 0 selects 16 MB, the
	// configuration used in the paper's experiments.
	BufferPoolBytes int
	// DeltaBudgetBytes caps the in-memory ingest delta store: once the
	// uncompacted overlay reaches this many bytes, InsertCells blocks
	// (backpressure) until a compaction drains it. 0 means unlimited.
	DeltaBudgetBytes int64
}

// DB is an open database handle. Queries (through Sessions), the ingest
// path (InsertCells), and the background compactor are safe for
// concurrent use; the bulk write APIs (loads, builds, Commit) run one at
// a time, never inside a compaction.
type DB struct {
	disk storage.DiskManager
	bp   *storage.BufferPool
	sb   *storage.Superblock
	cat  *catalog.Catalog
	log  *wal.Log
	ex   *exec.Executor
	ds   *delta.Store
	path string

	// writeMu serializes the writers that mutate the committed state:
	// loads, builds, user commits, and the compactor's fold+commit. Under it the delta store's published array state
	// equals cat.ArrayState, so the compactor may fold onto its
	// view's. The ingest path does not take it — deltas live
	// outside the page store until the compactor folds them.
	writeMu sync.Mutex

	// Background compactor lifecycle (StartCompactor / Close).
	compactStop chan struct{}
	compactWG   sync.WaitGroup

	compactions    *obs.Counter
	compactSeconds *obs.Histogram

	// codecSnap is the latest array codec mix, republished by builds
	// and compactions. Stats and the /metrics gauges read it instead of
	// cat.Stats, which concurrent queries read without locks — the
	// compactor must not mutate that in place.
	codecSnap atomic.Pointer[codecSnapshot]

	// compactTestHook, when set by a test, runs at each named stage of
	// Compact ("applied", "swapped", "committed") so crash tests can
	// fail or kill the process at precise points.
	compactTestHook func(stage string) error
}

// testWrapDisk, when set by a test before Open, wraps the disk manager
// (fault injection for crash-recovery tests).
var testWrapDisk func(storage.DiskManager) storage.DiskManager

// Open opens (creating as needed) a database. For file-backed databases
// any committed WAL suffix is replayed first, so a crash between Commit
// and Checkpoint is recovered transparently.
func Open(opts Options) (*DB, error) {
	db := &DB{path: opts.Path}
	dwal := "" // the delta store's log; none in memory
	if opts.Path == "" {
		db.disk = storage.NewMemDiskManager()
	} else {
		d, err := storage.OpenFileDiskManager(opts.Path)
		if err != nil {
			return nil, err
		}
		if _, err := wal.Recover(walPath(opts.Path), d); err != nil {
			d.Close()
			return nil, fmt.Errorf("repro: recover: %w", err)
		}
		db.disk = d
		dwal = deltaWALPath(opts.Path)
	}
	if testWrapDisk != nil {
		db.disk = testWrapDisk(db.disk)
	}
	frames := 0
	if opts.BufferPoolBytes > 0 {
		frames = opts.BufferPoolBytes / storage.PageSize
		if frames < 8 {
			frames = 8
		}
	}
	db.bp = storage.NewBufferPool(db.disk, frames)
	if opts.Path != "" {
		l, err := wal.Open(walPath(opts.Path))
		if err != nil {
			db.disk.Close()
			return nil, err
		}
		db.log = l
		db.bp.SetPageLogger(l)
	}
	sb, err := storage.OpenSuperblock(db.bp)
	if err != nil {
		db.closeQuietly()
		return nil, err
	}
	db.sb = sb
	cat, err := catalog.Load(db.bp, sb)
	if err != nil {
		db.closeQuietly()
		return nil, err
	}
	db.cat = cat
	db.ex = exec.NewExecutor(db.bp, cat)
	ds, err := delta.Open(dwal, opts.DeltaBudgetBytes)
	if err != nil {
		db.closeQuietly()
		return nil, fmt.Errorf("repro: delta recover: %w", err)
	}
	db.ds = ds
	ds.SeedTouched(cat.DeltaChunks)
	db.ex.Context().SetDeltaStore(ds)
	reg := db.ex.Context().Registry()
	reg.GaugeFunc("delta_cells", "overlay cells awaiting compaction",
		func() float64 { return float64(ds.Stats().Cells) })
	reg.GaugeFunc("delta_bytes", "estimated bytes held by the ingest delta store",
		func() float64 { return float64(ds.Stats().Bytes) })
	db.compactions = reg.Counter("compactions_total",
		"delta compactions folded into the chunk store")
	db.compactSeconds = reg.Histogram("compaction_seconds",
		"wall time per delta compaction", nil)
	db.registerCodecMetrics(reg)
	if db.log != nil {
		l := db.log
		reg.CounterFunc("wal_page_images_total",
			"redo page images appended to the WAL",
			func() int64 { return int64(l.Stats().PageImages) })
		reg.CounterFunc("wal_commits_total",
			"commit records appended to the WAL",
			func() int64 { return int64(l.Stats().Commits) })
		reg.CounterFunc("wal_fsyncs_total",
			"fsyncs issued by the WAL",
			func() int64 { return int64(l.Stats().Fsyncs) })
	}
	return db, nil
}

// codecSnapshot is one published view of the array's codec mix.
type codecSnapshot struct {
	codec  string
	codecs map[string]CodecUsage
}

// refreshCodecSnapshot republishes the codec mix after the array
// changes. Unlike BuildArray's statistics refresh it never touches
// cat.Stats — the compactor calls it while queries are planning against
// those statistics lock-free.
func (db *DB) refreshCodecSnapshot() error {
	arr, err := exec.OpenArray(db.bp, db.cat)
	if err != nil {
		return err
	}
	store := arr.Store()
	snap := &codecSnapshot{codec: store.CodecName(), codecs: make(map[string]CodecUsage)}
	for name, st := range store.CodecStats() {
		snap.codecs[name] = CodecUsage{Chunks: st.Chunks, EncodedBytes: st.EncodedBytes}
	}
	db.codecSnap.Store(snap)
	return nil
}

// registerCodecMetrics registers one gauge pair per chunk codec, read
// from the published codec snapshot (falling back to the catalog's
// array statistics until the first build). The registry has no label
// support, so the codec name is folded into the metric name, dashes
// mapped to underscores.
func (db *DB) registerCodecMetrics(reg *obs.Registry) {
	for _, name := range []string{chunk.CodecOffset, chunk.CodecDense, chunk.CodecLZW, chunk.CodecDiffSeq} {
		name := name
		suffix := strings.ReplaceAll(name, "-", "_")
		reg.GaugeFunc("codec_chunks_total_"+suffix,
			"non-empty array chunks encoded with "+name,
			func() float64 { return float64(db.codecUsage(name).Chunks) })
		reg.GaugeFunc("codec_encoded_bytes_"+suffix,
			"compressed chunk payload bytes encoded with "+name,
			func() float64 { return float64(db.codecUsage(name).EncodedBytes) })
	}
}

// codecUsage reads one codec's usage out of the published snapshot, or
// the persisted array statistics before the first build or compaction
// of this process.
func (db *DB) codecUsage(name string) CodecUsage {
	if snap := db.codecSnap.Load(); snap != nil {
		return snap.codecs[name]
	}
	st := db.cat.Stats
	if st == nil || st.Array == nil {
		return CodecUsage{}
	}
	cs := st.Array.Codecs[name]
	return CodecUsage{Chunks: cs.Chunks, EncodedBytes: cs.EncodedBytes}
}

// walPath derives the log path from the volume path.
func walPath(path string) string { return path + ".wal" }

// deltaWALPath derives the ingest delta log path from the volume path.
// It is a separate file from the page WAL because the page WAL is
// truncated at every checkpoint, while delta records must survive until
// a compaction folds them into the chunk store.
func deltaWALPath(path string) string { return path + ".deltawal" }

func (db *DB) closeQuietly() {
	if db.ds != nil {
		db.ds.Close()
	}
	if db.log != nil {
		db.log.Close()
	}
	db.disk.Close()
}

// Commit makes all work since the previous Commit durable and atomic:
// redo images of every dirty page are forced to the WAL, a commit record
// is fsynced, the pages are flushed to the volume, and the log is
// checkpointed. An in-memory database has no WAL: there it degenerates
// to a flush. Ingested deltas are NOT part of the page store — they are
// already durable in their own log and are folded in by Compact.
func (db *DB) Commit() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.commitLocked(); err != nil {
		return err
	}
	db.catalogChanged()
	return nil
}

// commitLocked is the durable half of Commit, shared with the compactor
// — which must NOT announce a catalog change, because a compaction
// changes no observable content and the caches should survive it.
// Callers hold writeMu.
func (db *DB) commitLocked() error {
	if err := db.cat.Save(db.bp, db.sb); err != nil {
		return err
	}
	if db.log != nil {
		if err := db.bp.LogDirtyPages(); err != nil {
			return err
		}
		if err := db.log.AppendCommit(); err != nil {
			return err
		}
	}
	if err := db.bp.FlushAll(); err != nil {
		return err
	}
	if db.log != nil {
		if err := db.log.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background compactor, commits outstanding work, and
// releases the database. Uncompacted deltas survive in the delta log
// and are replayed by the next Open.
func (db *DB) Close() error {
	db.StopCompactor()
	commitErr := db.Commit()
	if db.ds != nil {
		if err := db.ds.Close(); err != nil && commitErr == nil {
			commitErr = err
		}
	}
	if db.log != nil {
		if err := db.log.Close(); err != nil && commitErr == nil {
			commitErr = err
		}
	}
	if err := db.disk.Close(); err != nil && commitErr == nil {
		commitErr = err
	}
	return commitErr
}

// Schema returns the database's star schema, or nil before
// CreateStarSchema.
func (db *DB) Schema() *StarSchema { return db.cat.Schema }

// EngineStats is one cross-layer health snapshot: buffer pool I/O,
// write-ahead log activity, and the age of the planner statistics.
type EngineStats struct {
	// Buffer holds the cumulative buffer pool counters.
	Buffer Stats `json:"buffer"`
	// BufferHitRate is the fraction of logical reads served from memory.
	BufferHitRate float64 `json:"buffer_hit_rate"`
	// WAL holds the log counters; zero when HasWAL is false.
	WAL WALStats `json:"wal"`
	// HasWAL reports whether this database logs (file-backed, WAL on).
	HasWAL bool `json:"has_wal"`
	// StatsAge is the time since the planner statistics were last
	// collected; zero when the catalog carries none (planner falls back
	// to its structural heuristic).
	StatsAge time.Duration `json:"stats_age_ns"`
	// HasCache reports whether the mid-tier query cache is enabled;
	// the cache counters below are zero when it never was.
	HasCache bool `json:"has_cache"`
	// ResultCache holds the semantic result cache's counters.
	ResultCache CacheStats `json:"result_cache"`
	// ChunkCache holds the decoded-chunk cache's counters.
	ChunkCache CacheStats `json:"chunk_cache"`
	// SingleflightDedup counts queries that piggybacked on an identical
	// concurrent execution instead of running the engine themselves.
	SingleflightDedup int64 `json:"singleflight_dedup"`
	// Queries counts queries executed since open; the latency estimates
	// below are bucket-interpolated from the shared wall-time histogram
	// and are zero until the first query completes.
	Queries    int64   `json:"queries"`
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// ArrayCodec is the array's codec mode ("adaptive" or a forced
	// codec); empty when no array is built.
	ArrayCodec string `json:"array_codec,omitempty"`
	// ArrayCodecs breaks the array's encoded payload down by the codec
	// each chunk is tagged with; nil when no array is built.
	ArrayCodecs map[string]CodecUsage `json:"array_codecs,omitempty"`
}

// Stats returns a cross-layer engine snapshot: buffer pool counters,
// WAL counters, and planner-statistics age.
func (db *DB) Stats() EngineStats {
	es := EngineStats{Buffer: db.bp.Stats()}
	es.BufferHitRate = es.Buffer.HitRate()
	if db.log != nil {
		es.WAL = db.log.Stats()
		es.HasWAL = true
	}
	if st := db.cat.Stats; st != nil && st.CollectedUnix > 0 {
		es.StatsAge = time.Since(time.Unix(st.CollectedUnix, 0))
	}
	es.ResultCache, es.ChunkCache, es.SingleflightDedup, es.HasCache = db.ex.Context().CacheStats()
	es.Queries, es.LatencyP50, es.LatencyP95, es.LatencyP99 = db.ex.Context().QueryLatency()
	if snap := db.codecSnap.Load(); snap != nil {
		es.ArrayCodec = snap.codec
		if len(snap.codecs) > 0 {
			es.ArrayCodecs = make(map[string]CodecUsage, len(snap.codecs))
			for name, u := range snap.codecs {
				es.ArrayCodecs[name] = u
			}
		}
	} else if st := db.cat.Stats; st != nil && st.Array != nil {
		es.ArrayCodec = st.Array.Codec
		if len(st.Array.Codecs) > 0 {
			es.ArrayCodecs = make(map[string]CodecUsage, len(st.Array.Codecs))
			for name, cs := range st.Array.Codecs {
				es.ArrayCodecs[name] = CodecUsage{Chunks: cs.Chunks, EncodedBytes: cs.EncodedBytes}
			}
		}
	}
	return es
}

// FlightRecorder returns the database's flight recorder: the ring of
// the last completed queries' profiles plus the retained slowest set.
// Mount its Handler where convenient:
//
//	http.Handle("/debug/queries", db.FlightRecorder().Handler())
func (db *DB) FlightRecorder() *FlightRecorder { return db.ex.Context().FlightRecorder() }

// SetTraceSampling sets how often queries collect fine-grained spans
// when tracing is not forced on: 1 in every queries. 1 traces every
// query, 0 disables sampling entirely. Coarse spans and flight-recorder
// profiles are always collected.
func (db *DB) SetTraceSampling(every int) { db.ex.Context().TraceSampler().SetEvery(every) }

// SetTrace turns always-on tracing on or off for queries run on the DB
// handle itself (sessions carry their own switch, Session.SetTrace).
func (db *DB) SetTrace(on bool) { db.ex.SetTrace(on) }

// EnableQueryCache turns on the mid-tier query cache, splitting
// totalBytes between the semantic result cache (materialized row sets
// keyed by normalized plan fingerprint, deduplicated with singleflight)
// and the decoded-chunk cache that sits above the buffer pool. Loads,
// updates, and DropCaches start a new catalog generation with empty
// caches. totalBytes <= 0 disables the cache.
// Sessions opt out individually with Session.SetCache(false).
func (db *DB) EnableQueryCache(totalBytes int64) {
	db.ex.Context().EnableQueryCache(totalBytes)
}

// SetParallel sets the intra-query parallel degree for queries run on
// the DB handle itself: the number of workers one query's operator
// loops may fan out to. 0 (the default) means GOMAXPROCS; 1 forces
// sequential execution. Sessions carry their own degree
// (Session.SetParallel). The degree never changes results.
func (db *DB) SetParallel(workers int) { db.ex.SetParallel(workers) }

// Registry returns the metrics registry every layer of this database
// reports into. Callers may register their own instruments on it.
func (db *DB) Registry() *obs.Registry { return db.ex.Context().Registry() }

// MetricsSnapshot returns a point-in-time copy of every engine metric,
// ready for JSON encoding.
func (db *DB) MetricsSnapshot() MetricsSnapshot { return db.Registry().Snapshot() }

// MetricsHandler returns an http.Handler exposing the engine's metrics
// as Prometheus text (default) or JSON (?format=json). Mount it where
// convenient:
//
//	http.Handle("/metrics", db.MetricsHandler())
func (db *DB) MetricsHandler() http.Handler { return obs.Handler(db.Registry()) }

// SetSlowQueryLog enables structured slow-query logging on the DB's own
// executor: queries at or above min are reported to l with their SQL,
// plan, counters, and I/O. Sessions opt in separately. A nil logger
// disables it.
func (db *DB) SetSlowQueryLog(l *slog.Logger, min time.Duration) {
	db.ex.SetSlowQueryLog(l, min)
}

// DropCaches flushes and empties the buffer pool — the paper's cold-cache
// protocol between measured queries. Object handles, memoised statements
// and both query-cache layers go with it.
func (db *DB) DropCaches() error { return db.ex.DropCaches() }

// Explain plans a query without running it, reporting the estimated
// selectivity, every candidate plan's cost, and the chosen plan tree.
// A leading EXPLAIN keyword in sql is accepted and ignored.
func (db *DB) Explain(sql string) (*Explanation, error) {
	return db.ex.ExplainSQLContext(context.Background(), sql, Auto)
}
