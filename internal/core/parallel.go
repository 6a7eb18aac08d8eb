package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// activeWorkers tracks intra-query parallel workers currently running,
// process-wide. Exposed through the registry as a gauge (see exec); a
// package atomic for the same reason as bitmap.LogicalOps — workers are
// spawned deep inside the algorithms, far from any registry.
var activeWorkers atomic.Int64

// ActiveWorkers reports the number of intra-query parallel workers
// running right now, process-wide.
func ActiveWorkers() int64 { return activeWorkers.Load() }

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

// runParts splits a run over units of work across workers: it clamps
// the requested degree to the units — an idle worker with no partition
// to scan is pure overhead — runs fn once per worker w of n, each
// filling its own partial, and merges the partial cubes into one result.
// A single worker runs inline on the caller's goroutine and its partial
// is the result: sequential execution is this function at workers <= 1,
// not a second code path. On failure every partial cube is released.
func runParts(ctx context.Context, workers, units int, fn func(ctx context.Context, w, n int, p *workerPartial)) (*Result, Metrics, error) {
	parts := make([]workerPartial, clampWorkers(workers, units))
	var err error
	if len(parts) == 1 {
		fn(ctx, 0, 1, &parts[0])
		err = parts[0].err
	} else {
		err = runWorkers(ctx, parts, fn)
	}
	if err != nil {
		for w := range parts {
			parts[w].res.Release()
		}
		return nil, Metrics{}, err
	}
	return mergeParts(parts)
}

// clampWorkers bounds a parallel degree by the available work units, and
// below by 1.
func clampWorkers(workers, units int) int {
	return max(min(workers, units), 1)
}

// runWorkers fans fn out over one goroutine per partial and waits for
// all of them. The derived context is canceled as soon as any worker
// fails, so siblings abandon their partitions promptly; the caller's
// cancellation propagates the same way. Worker errors are reported in
// worker order (caller cancellation wins) for determinism, a failure
// ahead of the context.Canceled it induced in the siblings.
func runWorkers(ctx context.Context, parts []workerPartial, fn func(ctx context.Context, w, n int, p *workerPartial)) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for w := range parts {
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
				fn(ctx, w, len(parts), &parts[w])
			})
			parts[w].busy = time.Since(start)
			if parts[w].err != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var canceled error
	for w := range parts {
		switch err := parts[w].err; {
		case err == nil:
		case !errors.Is(err, context.Canceled):
			return err
		case canceled == nil:
			canceled = err
		}
	}
	return canceled
}

// mergeParts folds the workers' partial cubes and counters into one
// result. int64 aggregation is associative and the merge order is fixed
// (worker 0 first), so the merged cube is bit-identical to a sequential
// run whatever the interleaving was. The per-worker breakdown and the
// efficiency figure land in the merged Metrics; a lone partial is a
// sequential run and reports neither.
func mergeParts(parts []workerPartial) (*Result, Metrics, error) {
	if len(parts) == 1 {
		return parts[0].res, parts[0].m, nil
	}
	var total Metrics
	var out *Result
	var busySum, busyMax time.Duration
	for w := range parts {
		p := &parts[w]
		total.Add(&p.m)
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
	total.ParallelDegree = len(parts)
	if busyMax > 0 {
		total.ParallelEfficiency = float64(busySum) / (float64(len(parts)) * float64(busyMax))
	}
	return out, total, nil
}
