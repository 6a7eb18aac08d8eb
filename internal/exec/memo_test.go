package exec

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// memoOf runs sql and reports whether its statement came from the memo.
func memoOf(t *testing.T, e *Executor, sql string, engine Engine) (string, *QueryResult) {
	t.Helper()
	qr, err := e.ExecuteSQLContext(context.Background(), sql, engine)
	if err != nil {
		t.Fatal(err)
	}
	prof := e.Context().FlightRecorder().Profile(qr.QueryID)
	if prof == nil || prof.Memo != qr.Explanation.Memo || prof.PlanTime <= 0 {
		t.Fatalf("profile %+v does not agree with the explanation's memo=%q, or lost its plan time", prof, qr.Explanation.Memo)
	}
	return prof.Memo, qr
}

// TestStatementMemo: a statement is remembered from its second sighting
// and resolved from the memo after that; the key tells apart everything a
// plan depends on (engine, degree); a build that changes what plans are
// runnable, a statistics refresh and DropCaches each retire the entry.
func TestStatementMemo(t *testing.T) {
	bp, cat, _ := buildTestDB(t, false, true)
	e := NewExecutor(bp, cat)
	e.SetParallel(1)

	// learn runs the statement until the memo answers, which must be on
	// the third run exactly: seen, kept, found.
	learn := func(what string, engine Engine) *QueryResult {
		t.Helper()
		for i, want := range []string{"miss", "miss", "hit"} {
			memo, qr := memoOf(t, e, testQ2, engine)
			if memo != want {
				t.Fatalf("%s, run %d: memo %s, want %s", what, i+1, memo, want)
			}
			if want == "hit" {
				return qr
			}
		}
		return nil
	}
	first := learn("a new statement", Auto)
	if first.Plan != "bitmap-factfile" {
		t.Fatalf("without an array Auto chose %s", first.Plan)
	}

	// Same text, something else the plan depends on.
	learn("another engine", StarJoinEngine)
	e.SetParallel(2)
	learn("another degree", Auto)
	e.SetParallel(1)
	if memo, _ := memoOf(t, e, testQ2, Auto); memo != "hit" {
		t.Fatalf("back to the first key: memo %s", memo)
	}

	// BuildArray makes a cheaper plan runnable. The owner announces the
	// new objects with InvalidateHandles; a memo that outlived it would
	// go on choosing the bitmap plan.
	if err := BuildArray(bp, cat, ArrayBuildConfig{ChunkShape: []int{4, 5, 4}}); err != nil {
		t.Fatal(err)
	}
	e.InvalidateHandles()
	memo, rebuilt := memoOf(t, e, testQ2, Auto)
	if memo != "miss" || rebuilt.Plan != "array-select-consolidate" {
		t.Fatalf("after BuildArray: memo %s, plan %s", memo, rebuilt.Plan)
	}
	if !core.RowsEqual(first.Rows, rebuilt.Rows) {
		t.Fatalf("rows changed with the plan: %s", core.DiffRows(first.Rows, rebuilt.Rows))
	}
	if memo, _ := memoOf(t, e, testQ2, Auto); memo != "hit" {
		t.Fatalf("after BuildArray, again: memo %s", memo) // its text had been seen before
	}

	// The cold-cache protocol starts from the text again.
	memoOf(t, e, testQ2, Auto)
	if err := e.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if memo, _ := memoOf(t, e, testQ2, Auto); memo != "miss" {
		t.Fatalf("after DropCaches: memo %s", memo)
	}

	// A statement that does not compile is not remembered, and fails the
	// same way every time.
	for i := 0; i < 3; i++ {
		if _, err := e.ExecuteSQLContext(context.Background(), "select nothing", Auto); err == nil {
			t.Fatal("a bad statement ran")
		}
	}
}

// TestStatementMemoIsBounded: statements that never repeat are not kept
// at all, and an endless stream of repeating ones does not grow the memo
// past its capacity.
func TestStatementMemoIsBounded(t *testing.T) {
	var m stmtMemo
	key := func(i int) stmtKey { return stmtKey{sql: strings.Repeat("x", i%7), workers: i} }
	for i := 0; i < 3*stmtMemoCap; i++ {
		m.put(key(i), &statement{})
	}
	if len(m.m) != 0 {
		t.Fatalf("memo kept %d statements it saw once", len(m.m))
	}
	for i := 0; i < 3*stmtMemoCap; i++ {
		m.put(key(i), &statement{})
		m.put(key(i), &statement{})
	}
	if len(m.m) != stmtMemoCap {
		t.Fatalf("memo holds %d statements, capacity %d", len(m.m), stmtMemoCap)
	}
}

// TestMemoisedStatementIsNotWrittenTo runs one text from several
// executors at once — plain, EXPLAIN ANALYZE (which annotates a plan
// tree) and against the result cache (which marks an explanation as a
// hit). Each run must see only its own facts; under -race, a write to
// the shared statement is reported.
func TestMemoisedStatementIsNotWrittenTo(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	ctx := NewExecContext(bp, cat)
	ctx.EnableQueryCache(8 << 20)
	analyze := "explain analyze " + testQ2

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := NewSessionExecutor(ctx)
			e.SetParallel(1)
			e.SetCacheEnabled(g%2 == 0)
			for i := 0; i < 30; i++ {
				qr, err := e.ExecuteSQLContext(context.Background(), analyze, Auto)
				if err != nil {
					t.Error(err)
					return
				}
				x := qr.Explanation
				if x.CacheHit != qr.Cached || x.Analyzed == qr.Cached || x.Tree.Analyzed != x.Analyzed {
					t.Errorf("executor %d: cached=%v but explanation says hit=%v analyzed=%v tree=%v",
						g, qr.Cached, x.CacheHit, x.Analyzed, x.Tree.Analyzed)
					return
				}
				if qr, err = e.ExecuteSQLContext(context.Background(), testQ2, Auto); err != nil || qr.Explanation.Analyzed {
					t.Errorf("executor %d: plain run: analyzed explanation or error %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
