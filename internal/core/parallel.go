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

// runParts runs fn on up to workers workers over units units of work and
// merges their partial cubes into one result. It is the one fan-out of
// every engine: the units sit behind one atomic dispenser, and each
// worker's next claims the lowest unit no worker has claimed yet, until
// the run is dry, so a worker that drew cheap units claims more and none
// waits on a static share. The degree is clamped to the units — a worker
// with nothing to claim is pure overhead. A single worker runs inline on
// the caller's goroutine and its partial is the result: sequential
// execution is this function at workers <= 1, not a second code path. On
// failure every partial cube is released.
func runParts(ctx context.Context, workers, units int, fn func(ctx context.Context, w int, next func() (int, bool), p *workerPartial)) (*Result, Metrics, error) {
	parts := make([]workerPartial, ClampWorkers(workers, units))
	next := dispense(units)
	var err error
	if len(parts) == 1 {
		fn(ctx, 0, next, &parts[0])
		err = parts[0].err
	} else {
		err = runWorkers(ctx, parts, func(ctx context.Context, w int) { fn(ctx, w, next, &parts[w]) })
	}
	if err != nil {
		for w := range parts {
			parts[w].res.Release()
		}
		return nil, Metrics{}, err
	}
	return mergeParts(parts)
}

// dispense returns the dispenser of a run over the units [0, n): each
// call of next claims, for whichever goroutine calls, the lowest unit no
// call has claimed yet, and reports false once none is left.
func dispense(n int) (next func() (int, bool)) {
	var claimed atomic.Int64
	return func() (int, bool) {
		u := claimed.Add(1) - 1
		return int(u), u < int64(n)
	}
}

// ClampWorkers bounds a parallel degree by the available work units, and
// below by 1.
func ClampWorkers(workers, units int) int {
	return max(min(workers, units), 1)
}

// runWorkers fans fn out over one goroutine per partial and waits for
// all of them. The derived context is canceled as soon as any worker
// fails, so siblings abandon their partitions promptly; the caller's
// cancellation propagates the same way. Worker errors are reported in
// worker order (caller cancellation wins) for determinism, a failure
// ahead of the context.Canceled it induced in the siblings.
func runWorkers(ctx context.Context, parts []workerPartial, fn func(ctx context.Context, w int)) error {
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
				fn(ctx, w)
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
// result, worker 0 first. int64 aggregation is associative and
// commutative, so the merged cube is bit-identical to a sequential run
// whichever worker claimed which unit. The per-worker breakdown and the
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
