package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/factfile"
)

// activeWorkers tracks intra-query parallel workers currently running,
// process-wide. Exposed through the registry as a gauge (see exec); a
// package atomic for the same reason as bitmap.LogicalOps — workers are
// spawned deep inside the algorithms, far from any registry.
var activeWorkers atomic.Int64

// ActiveWorkers reports the number of intra-query parallel workers
// running right now, process-wide.
func ActiveWorkers() int64 { return activeWorkers.Load() }

// ClampWorkers resolves a requested parallel degree against the number
// of available work units: <= 0 means GOMAXPROCS, and the degree never
// exceeds units (an idle worker with no partition to scan is pure
// overhead — and the clamp is what guarantees every spawned worker has
// work, so none can block forever on an empty range).
func ClampWorkers(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// workerPartial is one worker's thread-local output: a private partial
// result cube, private counters, and the busy time the merge phase
// turns into a parallel-efficiency figure. rows/io are the per-worker
// numbers surfaced in EXPLAIN ANALYZE.
type workerPartial struct {
	res  *Result
	m    Metrics
	rows int64
	io   int64
	err  error
	busy time.Duration
}

// runWorkers fans fn out over `workers` goroutines and waits for all of
// them. The derived context is canceled as soon as any worker fails, so
// siblings abandon their partitions promptly; the caller's cancellation
// propagates the same way. Worker errors are reported in worker order
// (caller cancellation wins) for determinism, a failure ahead of the
// context.Canceled it induced in the siblings.
func runWorkers(ctx context.Context, workers int, fn func(ctx context.Context, w int, p *workerPartial)) ([]workerPartial, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]workerPartial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			start := time.Now()
			// The worker label composes with the query_id/engine/
			// fingerprint labels the executor put on wctx, so CPU
			// profiles attribute samples to individual workers of a
			// specific query.
			pprof.Do(wctx, pprof.Labels("worker", strconv.Itoa(w)), func(ctx context.Context) {
				fn(ctx, w, &parts[w])
			})
			parts[w].busy = time.Since(start)
			if parts[w].err != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var canceled error
	for w := range parts {
		switch err := parts[w].err; {
		case err == nil:
		case !errors.Is(err, context.Canceled):
			return nil, err
		case canceled == nil:
			canceled = err
		}
	}
	if canceled != nil {
		return nil, canceled
	}
	return parts, nil
}

// mergeParts folds the workers' partial cubes and counters into one
// result. int64 aggregation is associative and the merge order is fixed
// (worker 0 first), so the merged cube is bit-identical to a sequential
// run whatever the interleaving was. The per-worker breakdown and the
// efficiency figure land in the merged Metrics.
func mergeParts(parts []workerPartial) (*Result, Metrics, error) {
	var total Metrics
	var out *Result
	var busySum, busyMax time.Duration
	for w := range parts {
		p := &parts[w]
		total.ChunksRead += p.m.ChunksRead
		total.CellsScanned += p.m.CellsScanned
		total.Probes += p.m.Probes
		total.ProbeHits += p.m.ProbeHits
		total.TuplesScanned += p.m.TuplesScanned
		total.TuplesFetched += p.m.TuplesFetched
		total.BitmapsRead += p.m.BitmapsRead
		total.BitmapANDs += p.m.BitmapANDs
		total.WorkerRows = append(total.WorkerRows, p.rows)
		total.WorkerIO = append(total.WorkerIO, p.io)
		total.WorkerBusyNS = append(total.WorkerBusyNS, int64(p.busy))
		busySum += p.busy
		if p.busy > busyMax {
			busyMax = p.busy
		}
		if out == nil {
			out = p.res
			continue
		}
		if err := out.Merge(p.res); err != nil {
			return nil, total, err
		}
		// The partial's cube is folded in; recycle its worker arena now
		// instead of holding all of them until the query ends. Worker 0's
		// arena travels with the merged result and is released by the
		// executor after row materialization.
		p.res.Release()
	}
	if out == nil {
		return nil, total, fmt.Errorf("core: parallel consolidation produced no partials")
	}
	total.ParallelDegree = len(parts)
	if busyMax > 0 {
		total.ParallelEfficiency = float64(busySum) / (float64(len(parts)) * float64(busyMax))
	}
	return out, total, nil
}

// ArrayConsolidateParallel is ArrayConsolidate with the chunk scan
// partitioned across workers — the parallelization the paper lists as
// future work (§6).
func ArrayConsolidateParallel(a *array.Array, spec GroupSpec, workers int) (*Result, Metrics, error) {
	return ArrayConsolidateParallelContext(context.Background(), a, spec, workers)
}

// ArrayConsolidateParallelContext is ArrayConsolidateParallel with
// cancellation propagated into every worker: each partition's chunk
// scan checks the derived context before every chunk, and the first
// failure cancels the siblings.
func ArrayConsolidateParallelContext(ctx context.Context, a *array.Array, spec GroupSpec, workers int) (*Result, Metrics, error) {
	return arrayConsolidate(ctx, a, spec, workers, 0, a.Geometry().NumChunks())
}

// ArraySelectConsolidateParallelContext is ArraySelectConsolidateContext
// with the candidate chunks fanned out to workers.
func ArraySelectConsolidateParallelContext(ctx context.Context, a *array.Array, sels []Selection, spec GroupSpec, workers int) (*Result, Metrics, error) {
	return arraySelectConsolidate(ctx, a, sels, spec, workers, 0, a.Geometry().NumChunks())
}

// StarJoinConsolidateParallelContext is StarJoinConsolidateContext with
// the fact scan partitioned by extent ranges across workers.
func StarJoinConsolidateParallelContext(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, spec GroupSpec, workers int) (*Result, Metrics, error) {
	return starJoinParallel(ctx, ff, dims, nil, spec, workers, Restriction{}, nil)
}

// StarJoinSelectConsolidateParallelContext is the filtering variant of
// StarJoinConsolidateParallelContext.
func StarJoinSelectConsolidateParallelContext(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, sels []Selection, spec GroupSpec, workers int) (*Result, Metrics, error) {
	return starJoinParallel(ctx, ff, dims, sels, spec, workers, Restriction{}, nil)
}

// starJoinParallel partitions the fact file into extent-aligned tuple
// ranges — the fact file's O(1) addressing makes starting mid-file free,
// and extent alignment means workers never share a page. The dimension
// hash tables and selection key sets are built once and shared read-only
// (they are write-free after construction); each worker aggregates into
// a private clone of the result cube. A cluster Restriction narrows the
// extent window before the workers split it, so a sharded run is the
// worker split applied to the shard's slice.
func starJoinParallel(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, sels []Selection, spec GroupSpec, workers int, r Restriction, df *dirtyFilter) (*Result, Metrics, error) {
	extLo, extHi := r.ExtentRange(ff.NumExtents())
	workers = ClampWorkers(workers, extHi-extLo)
	if workers <= 1 {
		lo, hi := r.TupleRange(ff)
		return starJoin(ctx, ff, dims, sels, spec, lo, hi, df)
	}
	// The shared state (dimension hashes + template cube) lives in its
	// own arena, read-only to the workers and released once the partials
	// have merged into worker 0's cube.
	sar := queryArenas.Get()
	st, err := buildRelGroupState(dims, spec, sar)
	if err != nil {
		queryArenas.Put(sar)
		return nil, Metrics{}, err
	}
	filters, err := selectionKeySets(dims, sels)
	if err != nil {
		st.result.Release()
		return nil, Metrics{}, err
	}
	perExt := uint64(ff.ExtentTuples())
	perPage := uint64(ff.TuplesPerPage())
	n := len(dims)
	span := extHi - extLo
	parts, err := runWorkers(ctx, workers, func(ctx context.Context, w int, p *workerPartial) {
		ar := queryArenas.Get()
		res, err := st.result.emptyCloneIn(ar)
		if err != nil {
			queryArenas.Put(ar)
			p.err = err
			return
		}
		p.res = res
		local := &relGroupState{hashes: st.hashes, result: res}
		lo := uint64(extLo+span*w/workers) * perExt
		hi := uint64(extLo+span*(w+1)/workers) * perExt
		keys := make([]int64, n)
		// The dirty filter is shared read-only; each worker brings its
		// own coordinate scratch.
		var dfCoords []int
		if df != nil {
			dfCoords = make([]int, n)
		}
		agg := newAggSetIn(ar)
		p.err = ff.ScanRange(lo, hi, func(_ uint64, rec []byte) error {
			if p.m.TuplesScanned%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			p.m.TuplesScanned++
			for i := range keys {
				keys[i] = catalog.FactKey(rec, i)
			}
			if df != nil && df.dirty(keys, dfCoords) {
				return nil
			}
			for i, f := range filters {
				if f != nil {
					if _, ok := f[keys[i]]; !ok {
						return nil
					}
				}
			}
			idx, ok := local.groupIndex(keys)
			if !ok {
				return nil
			}
			agg.add(idx)
			res.add(idx, catalog.FactMeasure(rec, n))
			return nil
		})
		p.rows = p.m.TuplesScanned
		p.io = int64((p.m.TuplesScanned + int64(perPage) - 1) / int64(perPage))
	})
	if err != nil {
		st.result.Release()
		return nil, Metrics{}, err
	}
	res, m, err := mergeParts(parts)
	// The shared hashes and template cube are no longer referenced: the
	// merged result lives in worker 0's arena.
	st.result.Release()
	return res, m, err
}

// BitmapSelectConsolidateParallelContext is BitmapSelectConsolidate-
// Context with the bitmap word loops split across workers. Bitmap
// retrieval and the tuple fetch stay sequential — the LOB readers are
// not shareable and the fetch is I/O-ordered — so only the AND/OR word
// ranges parallelize, and only when the bitmaps are large enough for
// the split to pay (small bitmaps run the identical sequential loop,
// with identical operation counts).
func BitmapSelectConsolidateParallelContext(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable,
	src BitmapIndexSource, sels []Selection, spec GroupSpec, workers int) (*Result, Metrics, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return bitmapSelect(ctx, ff, dims, src, sels, spec, workers, 0, ff.NumTuples(), nil)
}
