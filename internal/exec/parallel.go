package exec

import (
	"runtime"

	"repro/internal/factfile"
)

// Intra-query parallelism plumbing. The degree flows: session option
// (SetParallel) -> Executor atomic -> parallelDegree resolves it (0
// becomes GOMAXPROCS) and plan() sets it as the Workers of the one
// core.ScanSpec every candidate plan carries -> Estimate clamps it to
// that plan's work units (chunks for the array, extents for the star
// join) and discounts the CPU term -> Run hands the ScanSpec to the
// engine, which clamps again against the actual objects and records the
// degree that ran in Metrics.ParallelDegree.

// SetParallel sets this executor's intra-query parallel degree: the
// number of workers the operator loops may fan out to. 0 (the default)
// means GOMAXPROCS; 1 forces sequential execution. Atomic for the same
// reason as the cache switch: a server session's option frames race its
// in-flight query goroutines. The degree never changes results — plans
// clamp it to their work units and merge order is fixed — so the result
// cache deliberately ignores it.
func (e *Executor) SetParallel(n int) {
	if n < 0 {
		n = 0
	}
	e.parallel.Store(int32(n))
}

// Parallel reports the configured parallel degree (0 = default to
// GOMAXPROCS at plan time).
func (e *Executor) Parallel() int { return int(e.parallel.Load()) }

// parallelDegree resolves the configured degree to the value plans are
// built with: always >= 1.
func (e *Executor) parallelDegree() int {
	if n := e.parallel.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// extentUnits estimates the fact file's extent count from statistics —
// the star join's parallel work units.
func extentUnits(factPages int64) int {
	u := int(factPages) / factfile.DefaultExtentPages
	if u < 1 {
		u = 1
	}
	return u
}
