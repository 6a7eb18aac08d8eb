// Package bench regenerates every figure of the paper's evaluation (§5):
// Query 1 consolidations on Data Sets 1 and 2 (Figures 4-5), Query 2
// selectivity sweeps of the array algorithm against the bitmap-index +
// fact-file plan (Figures 6-9), Query 3 with selection on three
// dimensions (Figure 10), the §3.2/§5.5.1 storage comparison, and the
// ablations DESIGN.md calls out (chunk codec, chunk shape, cross-product
// enumeration order, fact file vs slotted heap).
//
// Runners return structured Figure values that the CLI and EXPERIMENTS.md
// render as tables; absolute times are machine-dependent but the shapes
// (who wins, by what factor, where the crossover falls) are what the
// reproduction checks against the paper.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/factfile"
	"repro/internal/query"
	"repro/internal/storage"
)

// EnvConfig describes one experiment database.
type EnvConfig struct {
	Data            datagen.Config
	ChunkShape      []int  // nil = chunk.DefaultChunkShape
	Codec           string // "" = adaptive per-chunk selection
	BuildBitmaps    bool
	BufferPoolBytes int // 0 = the paper's 16 MB
	// DiskPath backs the environment with a real volume file instead of
	// memory, so physical reads hit the file system (olapbench -disk).
	DiskPath string
}

// Env is a fully built experiment database: dimension tables, fact file,
// OLAP array, and (optionally) bitmap indexes over one synthetic data
// set, in memory.
type Env struct {
	Cfg EnvConfig
	BP  *storage.BufferPool
	Cat *catalog.Catalog
	Ex  *exec.Executor
	DS  *datagen.Dataset
}

// BuildEnv generates the data set and loads every physical object.
func BuildEnv(cfg EnvConfig) (*Env, error) {
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	frames := 0
	if cfg.BufferPoolBytes > 0 {
		frames = cfg.BufferPoolBytes / storage.PageSize
	}
	var disk storage.DiskManager
	if cfg.DiskPath != "" {
		d, err := storage.OpenFileDiskManager(cfg.DiskPath)
		if err != nil {
			return nil, err
		}
		disk = d
	} else {
		disk = storage.NewMemDiskManager()
	}
	bp := storage.NewBufferPool(disk, frames)
	cat := catalog.NewCatalog()
	if err := exec.CreateSchema(bp, cat, ds.Schema()); err != nil {
		return nil, err
	}
	for dim := range ds.Schema().Dimensions {
		name := ds.Schema().Dimensions[dim].Name
		dt, err := cat.OpenDimension(bp, name)
		if err != nil {
			return nil, err
		}
		err = ds.EachDimRow(dim, func(key int64, attrs []string) error {
			return dt.Insert(key, attrs)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := exec.LoadFacts(bp, cat, ds.Facts()); err != nil {
		return nil, err
	}
	if err := exec.BuildArray(bp, cat, exec.ArrayBuildConfig{
		ChunkShape: cfg.ChunkShape,
		Codec:      cfg.Codec,
	}); err != nil {
		return nil, err
	}
	if cfg.BuildBitmaps {
		if err := exec.BuildBitmapIndexes(bp, cat); err != nil {
			return nil, err
		}
	}
	return &Env{Cfg: cfg, BP: bp, Cat: cat, Ex: exec.NewExecutor(bp, cat), DS: ds}, nil
}

// Array opens the env's OLAP array for direct algorithm calls.
func (e *Env) Array() (*array.Array, error) { return exec.OpenArray(e.BP, e.Cat) }

// FactFile opens the env's fact file.
func (e *Env) FactFile() (*factfile.File, error) { return exec.OpenFactFile(e.BP, e.Cat) }

// Dimensions opens the env's dimension tables.
func (e *Env) Dimensions() ([]*catalog.DimensionTable, error) {
	return exec.OpenDimensions(e.BP, e.Cat)
}

// Measurement is one timed query execution, plus the warm rerun through
// the mid-tier query cache (the cold trials themselves never touch it).
type Measurement struct {
	Plan    string
	Elapsed time.Duration
	Metrics core.Metrics
	IO      storage.Stats
	Rows    int
	Sum     int64 // checksum: total of row sums, for cross-plan validation
	// CachedElapsed is the wall time of the same query re-issued with
	// the query cache enabled and warm; CacheHit reports whether that
	// rerun was actually served from the result cache.
	CachedElapsed time.Duration
	CacheHit      bool
	// WorkersSweep, when the harness ran one (-workers), holds the warm
	// wall time at each intra-query degree; ParallelSpeedup is
	// elapsed(degree 1) / best parallel elapsed.
	WorkersSweep    []WorkerTiming
	ParallelSpeedup float64
	// AllocBytes/AllocObjects are the GC-heap cost of the best trial:
	// deltas of runtime.MemStats TotalAlloc and Mallocs around the
	// measured Execute. Arena- and pool-backed paths show up here as
	// reductions the wall clock alone can hide.
	AllocBytes   uint64
	AllocObjects uint64
	// LatencyP50/LatencyP95 are nearest-rank percentiles across the
	// measured trials' wall times (both equal Elapsed when trials == 1).
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	// Wait is the best trial's wait breakdown, read back from the
	// executor's flight recorder — where the wall time went.
	Wait WaitBreakdown
}

// WaitBreakdown mirrors the flight recorder's phase timings for one
// query (see obs.QueryProfile).
type WaitBreakdown struct {
	Admission time.Duration
	Cache     time.Duration
	Plan      time.Duration
	Exec      time.Duration
	Sort      time.Duration
}

// WorkerTiming is one point of a -workers sweep.
type WorkerTiming struct {
	Workers int
	Elapsed time.Duration
}

// benchCacheBytes sizes the temporary query cache for warm reruns.
const benchCacheBytes = 32 << 20

// Run executes spec on the given engine. When cold is true the buffer
// pool is dropped first, matching the paper's measurement protocol.
// trials > 1 repeats the query (cold each time) and keeps the minimum.
// After the measured trials the query runs twice more with the query
// cache enabled — a fill pass and a hit pass — recording the cached
// latency; the cache is disabled again before returning so the cold
// protocol of later measurements is untouched.
func (e *Env) Run(spec *query.Spec, engine exec.Engine, cold bool, trials int) (Measurement, error) {
	if trials < 1 {
		trials = 1
	}
	var best Measurement
	var bestQID string
	elapsed := make([]time.Duration, 0, trials)
	for t := 0; t < trials; t++ {
		if cold {
			if err := e.Ex.DropCaches(); err != nil {
				return Measurement{}, err
			}
		}
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		qr, err := e.Ex.Execute(spec, engine)
		if err != nil {
			return Measurement{}, err
		}
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		m := Measurement{
			Plan:         qr.Plan,
			Elapsed:      qr.Elapsed,
			Metrics:      qr.Metrics,
			IO:           qr.IO,
			Rows:         len(qr.Rows),
			AllocBytes:   msAfter.TotalAlloc - msBefore.TotalAlloc,
			AllocObjects: msAfter.Mallocs - msBefore.Mallocs,
		}
		for _, r := range qr.Rows {
			m.Sum += r.Sum
		}
		elapsed = append(elapsed, m.Elapsed)
		if t == 0 || m.Elapsed < best.Elapsed {
			best = m
			bestQID = qr.QueryID
		}
	}
	best.LatencyP50 = durPercentile(elapsed, 0.50)
	best.LatencyP95 = durPercentile(elapsed, 0.95)

	ectx := e.Ex.Context()
	// The best trial's wait breakdown, from the flight recorder (the
	// same record /debug/queries serves for server-side runs).
	if p := ectx.FlightRecorder().Profile(bestQID); p != nil {
		best.Wait = WaitBreakdown{
			Admission: p.AdmissionWait,
			Cache:     p.CacheWait,
			Plan:      p.PlanTime,
			Exec:      p.ExecTime,
			Sort:      p.SortTime,
		}
	}

	// Warm rerun: fill then hit, under a temporary query cache.
	ectx.EnableQueryCache(benchCacheBytes)
	defer ectx.EnableQueryCache(0)
	if _, err := e.Ex.Execute(spec, engine); err != nil {
		return Measurement{}, err
	}
	qr, err := e.Ex.Execute(spec, engine)
	if err != nil {
		return Measurement{}, err
	}
	best.CachedElapsed = qr.Elapsed
	best.CacheHit = qr.Cached
	return best, nil
}

// durPercentile returns the nearest-rank q-th percentile of ds.
func durPercentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WorkersSweep re-runs spec warm (buffer pool populated, query cache
// off) once per degree in workers and returns the timing at each,
// plus the speedup of the best parallel run over degree 1. Intra-query
// parallelism scales CPU work, not cold I/O, so the sweep deliberately
// measures warm: every degree reads the same cached pages and the
// difference is the fan-out. Each degree's rows and checksum are
// verified against base. The executor's degree is restored to the
// engine default before returning.
func (e *Env) WorkersSweep(spec *query.Spec, engine exec.Engine, workers []int, base Measurement) ([]WorkerTiming, float64, error) {
	defer e.Ex.SetParallel(0)
	// One unmeasured warm-up pass so every degree starts from the same
	// buffer-pool state.
	e.Ex.SetParallel(1)
	if _, err := e.Ex.Execute(spec, engine); err != nil {
		return nil, 0, err
	}
	var out []WorkerTiming
	var seq, bestPar time.Duration
	for _, w := range workers {
		if w < 1 {
			continue
		}
		e.Ex.SetParallel(w)
		var best time.Duration
		for t := 0; t < 3; t++ { // keep the fastest of three warm passes
			qr, err := e.Ex.Execute(spec, engine)
			if err != nil {
				return nil, 0, err
			}
			var sum int64
			for _, r := range qr.Rows {
				sum += r.Sum
			}
			if len(qr.Rows) != base.Rows || sum != base.Sum {
				return nil, 0, fmt.Errorf("bench: degree %d disagrees: %d rows/%d, want %d rows/%d",
					w, len(qr.Rows), sum, base.Rows, base.Sum)
			}
			if t == 0 || qr.Elapsed < best {
				best = qr.Elapsed
			}
		}
		out = append(out, WorkerTiming{Workers: w, Elapsed: best})
		if w == 1 {
			seq = best
		}
		if w > 1 && (bestPar == 0 || best < bestPar) {
			bestPar = best
		}
	}
	speedup := 0.0
	if seq > 0 && bestPar > 0 {
		speedup = float64(seq) / float64(bestPar)
	}
	return out, speedup, nil
}

// Query1Spec is the paper's Query 1: join every dimension, group by each
// hX1, sum the volume.
func (e *Env) Query1Spec() *query.Spec {
	n := e.Cat.Schema.NumDims()
	spec := &query.Spec{Aggs: []core.AggFunc{core.Sum}, Group: core.GroupByAttrs(n, 0)}
	for i := 0; i < n; i++ {
		spec.GroupAttrs = append(spec.GroupAttrs, e.Cat.Schema.Dimensions[i].Attrs[0])
	}
	return spec
}

// SelectSpec builds a Query 2/3-shaped spec: an equality selection on the
// hX2 attribute of the first selDims dimensions (value "AA1", which every
// distinct count >= 2 contains), grouping by hX1 of the same dimensions
// and collapsing the rest.
func (e *Env) SelectSpec(selDims int) (*query.Spec, error) {
	n := e.Cat.Schema.NumDims()
	if selDims < 1 || selDims > n {
		return nil, fmt.Errorf("bench: selDims %d out of [1,%d]", selDims, n)
	}
	spec := &query.Spec{Aggs: []core.AggFunc{core.Sum}, Group: make(core.GroupSpec, n)}
	for i := 0; i < selDims; i++ {
		spec.Selections = append(spec.Selections, core.Selection{Dim: i, Level: 1, Values: []string{"AA1"}})
		spec.Group[i] = core.DimGroup{Target: core.GroupByLevel, Level: 0}
		spec.GroupAttrs = append(spec.GroupAttrs, e.Cat.Schema.Dimensions[i].Attrs[0])
	}
	return spec, nil
}

// Selectivity returns the exact fraction of cube cells the spec's
// selections admit.
func (e *Env) Selectivity(spec *query.Spec) (float64, error) {
	arr, err := e.Array()
	if err != nil {
		return 0, err
	}
	return core.SelectionSelectivity(arr, spec.Selections)
}
