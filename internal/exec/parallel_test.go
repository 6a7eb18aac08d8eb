package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestExecutorParallelEqualsSequential runs every engine at degrees
// 1, 2, and 8 through the executor and asserts the rows are identical
// to the sequential run — the degree must never change results.
func TestExecutorParallelEqualsSequential(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	for _, sql := range []string{testQ1, testQ2} {
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine, Auto} {
			e.SetParallel(1)
			base, err := e.ExecuteSQLContext(context.Background(), sql, eng)
			if err != nil {
				t.Fatalf("engine %v sequential: %v", eng, err)
			}
			for _, deg := range []int{2, 8} {
				e.SetParallel(deg)
				qr, err := e.ExecuteSQLContext(context.Background(), sql, eng)
				if err != nil {
					t.Fatalf("engine %v degree %d: %v", eng, deg, err)
				}
				if !core.RowsEqual(qr.Rows, base.Rows) {
					t.Fatalf("engine %v degree %d != sequential: %s",
						eng, deg, core.DiffRows(qr.Rows, base.Rows))
				}
			}
		}
	}
	e.SetParallel(0)
}

// TestExplainShowsParallelDegree asserts EXPLAIN renders the clamped
// degree for parallel plans and omits it entirely at degree 1.
func TestExplainShowsParallelDegree(t *testing.T) {
	bp, cat := buildFig8DB(t)
	e := NewExecutor(bp, cat)

	e.SetParallel(4)
	x, err := e.ExplainSQLContext(context.Background(), fig8Query(0), ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if x.Degree != 4 {
		t.Fatalf("Degree = %d, want 4", x.Degree)
	}
	if s := x.String(); !strings.Contains(s, "parallel=4") {
		t.Fatalf("EXPLAIN missing parallel=4:\n%s", s)
	}

	e.SetParallel(1)
	x, err = e.ExplainSQLContext(context.Background(), fig8Query(0), ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if x.Degree != 1 {
		t.Fatalf("sequential Degree = %d, want 1", x.Degree)
	}
	if s := x.String(); strings.Contains(s, "parallel=") {
		t.Fatalf("sequential EXPLAIN must not render a degree:\n%s", s)
	}
	e.SetParallel(0)
}

// TestExplainAnalyzeParallelDetail asserts EXPLAIN ANALYZE on a
// parallel run reports the per-worker breakdown on the scan operator.
func TestExplainAnalyzeParallelDetail(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, false)
	e := NewExecutor(bp, cat)
	e.SetParallel(2)

	qr, err := e.ExecuteSQLContext(context.Background(), "explain analyze "+testQ1, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	s := qr.Explanation.String()
	if !strings.Contains(s, "workers=2") || !strings.Contains(s, "rows/worker=") {
		t.Fatalf("EXPLAIN ANALYZE missing worker detail:\n%s", s)
	}
	if qr.Metrics.ParallelDegree != 2 {
		t.Fatalf("ParallelDegree = %d, want 2", qr.Metrics.ParallelDegree)
	}
}

// TestSetParallelClampsNegative pins the setter's input handling.
func TestSetParallelClampsNegative(t *testing.T) {
	bp, cat, _ := buildTestDB(t, false, false)
	e := NewExecutor(bp, cat)
	e.SetParallel(-5)
	if got := e.Parallel(); got != 0 {
		t.Fatalf("Parallel() after SetParallel(-5) = %d, want 0", got)
	}
	if d := e.parallelDegree(); d < 1 {
		t.Fatalf("parallelDegree() = %d, want >= 1", d)
	}
}

// TestParallelStress races parallel queries on several sessions against
// cache resizes, handle invalidations (the epoch bump a load or update
// performs), buffer-pool drops, and mid-query cancels. Run under
// -race, it is the suite's data-race probe for the worker pool; the
// assertions only require that successful queries return correct rows.
func TestParallelStress(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	// The reference answer, computed sequentially up front.
	base, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	ctxShared := e.Context()
	ctxShared.EnableQueryCache(8 << 20)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Query workers: independent session executors at degree 4.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			se := NewSessionExecutor(ctxShared)
			se.SetParallel(4)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := testQ1
				if n%2 == 0 {
					sql = testQ2
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if n%5 == i { // a slice of queries get canceled mid-flight
					ctx, cancel = context.WithTimeout(ctx, time.Duration(n%3)*100*time.Microsecond)
				}
				qr, err := se.ExecuteSQLContext(ctx, sql, Auto)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					continue // cancellation and drop races are expected
				}
				if sql == testQ2 && !qr.Cached && !core.RowsEqual(qr.Rows, base.Rows) {
					t.Errorf("stress worker %d: wrong rows", i)
					return
				}
			}
		}(i)
	}

	// Chaos: epoch bumps, cache resizes, buffer-pool drops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			switch n % 3 {
			case 0:
				ctxShared.InvalidateHandles()
			case 1:
				ctxShared.EnableQueryCache(int64(4+n%8) << 20)
			case 2:
				_ = ctxShared.DropCaches()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	ctxShared.EnableQueryCache(0)
}
