package repro

import (
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// retailIngest is the differential workload: overwrite, insert, and
// delete cells spread over several chunks (chunk shape {4,4,3} over
// 12x8x6 gives 12 chunks).
func retailIngest(t *testing.T, db *DB) {
	t.Helper()
	if err := db.InsertCells([]IngestCell{
		{Keys: []int64{4, 0, 0}, Value: 999}, // overwrite existing
		{Keys: []int64{1, 0, 0}, Value: 50},  // insert new
		{Keys: []int64{0, 0, 0}, Delete: true},
		{Keys: []int64{11, 7, 5}, Value: 777}, // insert in the last chunk
	}); err != nil {
		t.Fatalf("InsertCells: %v", err)
	}
	// Separate batches exercise version bumps and overlay re-merge.
	if err := db.InsertCells([]IngestCell{{Keys: []int64{5, 3, 0}, Value: 123}}); err != nil {
		t.Fatalf("InsertCells: %v", err)
	}
	if err := db.InsertCells([]IngestCell{{Keys: []int64{6, 1, 1}, Delete: true}}); err != nil {
		t.Fatalf("InsertCells: %v", err)
	}
}

// TestIngestDifferential is the HTAP acceptance gate: for every engine
// and parallel degree, querying (base + delta overlay) must be
// bit-identical to querying the fully compacted database, and the
// engines must agree with each other in both states.
func TestIngestDifferential(t *testing.T) {
	openLoaded := func() *DB {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		loadRetail(t, db)
		return db
	}

	dbDelta := openLoaded()
	defer dbDelta.Close()
	dbCompact := openLoaded()
	defer dbCompact.Close()
	retailIngest(t, dbDelta)
	retailIngest(t, dbCompact)
	if err := dbCompact.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := dbCompact.DeltaStats(); st.DirtyChunks != 0 || st.Cells != 0 {
		t.Fatalf("delta store not drained after Compact: %+v", st)
	}
	if st := dbCompact.DeltaStats(); st.TouchedChunks == 0 {
		t.Fatal("touched-chunk set lost by Compact")
	}

	queries := []struct {
		sql     string
		engines []Engine
	}{
		{retailQuery, []Engine{ArrayEngine, StarJoinEngine}},
		{retailSelectQuery, []Engine{ArrayEngine, StarJoinEngine, BitmapEngine}},
	}
	for _, deg := range []int{1, 4} {
		dbDelta.SetParallel(deg)
		dbCompact.SetParallel(deg)
		for _, q := range queries {
			var ref []Row
			for _, eng := range q.engines {
				got, err := dbDelta.QueryOn(q.sql, eng)
				if err != nil {
					t.Fatalf("deg=%d %v delta: %v", deg, eng, err)
				}
				want, err := dbCompact.QueryOn(q.sql, eng)
				if err != nil {
					t.Fatalf("deg=%d %v compacted: %v", deg, eng, err)
				}
				if !core.RowsEqual(got.Rows, want.Rows) {
					t.Fatalf("deg=%d %v delta vs compacted: %s", deg, eng,
						core.DiffRows(got.Rows, want.Rows))
				}
				if ref == nil {
					ref = got.Rows
				} else if !core.RowsEqual(ref, got.Rows) {
					t.Fatalf("deg=%d %v disagrees with first engine: %s", deg, eng,
						core.DiffRows(ref, got.Rows))
				}
			}
		}
	}

	// A parallel session and Cube read the array too, and must see the
	// same pending deltas the executor's array engine does.
	for name, db := range map[string]*DB{"delta": dbDelta, "compacted": dbCompact} {
		want, err := db.QueryOn(retailQuery, ArrayEngine)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, deg := range []int{1, 2} {
			sess := db.Session()
			sess.SetParallel(deg)
			got, err := sess.QueryOn(retailQuery, ArrayEngine)
			if err != nil {
				t.Fatalf("%s parallel %d: %v", name, deg, err)
			}
			if !core.RowsEqual(got.Rows, want.Rows) {
				t.Fatalf("%s parallel %d vs array engine: %s", name, deg,
					core.DiffRows(got.Rows, want.Rows))
			}
		}
		cuboids, err := db.Cube(retailQuery)
		if err != nil {
			t.Fatalf("%s Cube: %v", name, err)
		}
		for _, c := range cuboids {
			if len(c.GroupAttrs) == len(want.GroupAttrs) && !core.RowsEqual(c.Rows, want.Rows) {
				t.Fatalf("%s Cube base cuboid vs array engine: %s", name,
					core.DiffRows(c.Rows, want.Rows))
			}
		}

		// So do the ADT's direct functions: an ingested cell is visible
		// while its delta is pending and reads the same once compacted.
		for _, c := range []struct {
			keys []int64
			want int64
			ok   bool
		}{
			{[]int64{4, 0, 0}, 999, true},
			{[]int64{1, 0, 0}, 50, true},
			{[]int64{0, 0, 0}, 0, false},
			{[]int64{11, 7, 5}, 777, true},
		} {
			if v, ok, err := db.ArrayGet(c.keys); err != nil || ok != c.ok || v != c.want {
				t.Fatalf("%s ArrayGet(%v) = %d, %v, %v; want %d, %v", name, c.keys, v, ok, err, c.want, c.ok)
			}
		}
		var total int64
		for _, r := range want.Rows {
			total += r.Sum
		}
		if sum, err := db.ArraySum([]int64{0, 0, 0}, []int64{11, 7, 5}); err != nil || sum != total {
			t.Fatalf("%s ArraySum(whole cube) = %d, %v; the array engine sums %d", name, sum, err, total)
		}
		slice, err := db.ArraySlice("product", 1)
		if err != nil {
			t.Fatalf("%s ArraySlice: %v", name, err)
		}
		found := false
		for _, c := range slice {
			found = found || c.Keys[1] == 0 && c.Keys[2] == 0 && c.Value == 50
		}
		if !found {
			t.Fatalf("%s ArraySlice(product=1) misses the ingested cell (1,0,0)=50: %v", name, slice)
		}
	}
}

// TestIngestArithmetic pins the ingest semantics down to exact sums and
// counts against a hand-replayed expectation.
func TestIngestArithmetic(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	before, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	var sumBefore, cntBefore int64
	for _, r := range before.Rows {
		sumBefore += r.Sum
		cntBefore += r.Count
	}
	v400, ok, _ := db.ArrayGet([]int64{4, 0, 0})
	if !ok {
		t.Fatal("seed cell (4,0,0) missing")
	}
	v000, ok, _ := db.ArrayGet([]int64{0, 0, 0})
	if !ok {
		t.Fatal("seed cell (0,0,0) missing")
	}
	v530, ok, _ := db.ArrayGet([]int64{5, 3, 0})
	if !ok {
		t.Fatal("seed cell (5,3,0) missing")
	}
	v611, ok, _ := db.ArrayGet([]int64{6, 1, 1})
	if !ok {
		t.Fatal("seed cell (6,1,1) missing")
	}
	retailIngest(t, db)

	wantSum := sumBefore + (999 - v400) + 50 - v000 + 777 + (123 - v530) - v611
	wantCnt := cntBefore + 2 - 2 // two inserts, two deletes

	for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
		res, err := db.QueryOn(retailQuery, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		var sum, cnt int64
		for _, r := range res.Rows {
			sum += r.Sum
			cnt += r.Count
		}
		if sum != wantSum || cnt != wantCnt {
			t.Fatalf("%v: sum=%d cnt=%d, want sum=%d cnt=%d", eng, sum, cnt, wantSum, wantCnt)
		}
	}

	// Ingest is absolute-state: re-applying the same batch changes
	// nothing (the idempotency crash recovery relies on).
	retailIngest(t, db)
	res, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range res.Rows {
		sum += r.Sum
	}
	if sum != wantSum {
		t.Fatalf("re-applied batch changed sum: %d != %d", sum, wantSum)
	}
}

// TestIngestDurableAcrossReopen covers the delta WAL: uncompacted
// deltas must survive close + reopen, and the touched-chunk set must
// survive a compaction + reopen (it is what keeps the relational
// engines correct forever after).
func TestIngestDurableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	retailIngest(t, db)
	want, err := db.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := db2.DeltaStats(); st.Cells == 0 {
		t.Fatal("delta WAL not replayed on reopen")
	}
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
		res, err := db2.QueryOn(retailQuery, eng)
		if err != nil {
			t.Fatalf("%v after reopen: %v", eng, err)
		}
		if !core.RowsEqual(res.Rows, want.Rows) {
			t.Fatalf("%v after reopen: %s", eng, core.DiffRows(res.Rows, want.Rows))
		}
	}
	if err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if st := db3.DeltaStats(); st.Cells != 0 || st.TouchedChunks == 0 {
		t.Fatalf("after compact+reopen: %+v (want 0 cells, touched set restored)", st)
	}
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
		res, err := db3.QueryOn(retailQuery, eng)
		if err != nil {
			t.Fatalf("%v after compact+reopen: %v", eng, err)
		}
		if !core.RowsEqual(res.Rows, want.Rows) {
			t.Fatalf("%v after compact+reopen: %s", eng, core.DiffRows(res.Rows, want.Rows))
		}
	}
}

// TestIngestBackpressure: a store over its byte budget blocks Apply
// until a compaction drains it (or the context ends).
func TestIngestBackpressure(t *testing.T) {
	db, err := Open(Options{DeltaBudgetBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	// Fill past the budget: the budget is checked before appending, so
	// the first batch lands regardless of size.
	if err := db.InsertCells([]IngestCell{
		{Keys: []int64{4, 0, 0}, Value: 1},
		{Keys: []int64{5, 0, 0}, Value: 2},
		{Keys: []int64{1, 0, 0}, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = db.InsertCellsContext(ctx, []IngestCell{{Keys: []int64{2, 0, 0}, Value: 4}})
	if err != context.DeadlineExceeded {
		t.Fatalf("over-budget insert: %v, want deadline exceeded", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCells([]IngestCell{{Keys: []int64{2, 0, 0}, Value: 4}}); err != nil {
		t.Fatalf("insert after drain: %v", err)
	}
}

// TestOverlayFoldIsObservable checks that what pending deltas cost a
// relational query shows in all three views of it — the EXPLAIN ANALYZE
// tree, the trace and the flight-recorder profile — and that a statement
// whose selection cannot reach a touched chunk reports no fold at all.
func TestOverlayFoldIsObservable(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.SetTrace(true)
	// One touched chunk, in the time block the y0 statement selects.
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 0}, Value: 999}}); err != nil {
		t.Fatal(err)
	}

	scrub := regexp.MustCompile(`time=[0-9][^ )]*`)
	for _, eng := range []Engine{StarJoinEngine, BitmapEngine} {
		res, err := db.QueryOn("explain analyze "+timeSelectQuery, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		m := res.Metrics
		if m.OverlayTouched != 1 || m.ChunksRead != 1 || m.Probes+m.CellsScanned == 0 {
			t.Fatalf("%v: fold counters %+v, want one touched chunk folded", eng, m)
		}
		const want = "    overlay-fold [re-aggregate reachable delta-touched chunks from the merged array]" +
			" (act rows=12 io=0.0 time=<t> touched=1 folded=1 probes=0 hits=0 scanned=12)\n"
		if got := scrub.ReplaceAllString(res.Explanation.String(), "time=<t>"); !strings.Contains(got, want) {
			t.Errorf("%v: EXPLAIN ANALYZE lacks the fold line\n%s--- in ---\n%s", eng, want, got)
		}
		if tree := res.Trace.String(); !strings.Contains(tree, "overlay-fold") || !strings.Contains(tree, "folded=1") {
			t.Errorf("%v: trace has no overlay-fold span:\n%s", eng, tree)
		}
		p := db.FlightRecorder().Profile(res.QueryID)
		if p == nil || p.FoldTouched != 1 || p.FoldChunks != 1 || p.FoldScanned != m.CellsScanned ||
			p.FoldProbes != m.Probes || p.FoldTime <= 0 || p.FoldTime > p.ExecTime {
			t.Errorf("%v: profile %+v does not carry the fold", eng, p)
		}

		other, err := db.QueryOn("explain analyze "+strings.Replace(timeSelectQuery, "y0", "y1", 1), eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if om := other.Metrics; om.OverlayTouched != 0 || om.ChunksRead != 0 ||
			strings.Contains(other.Explanation.String(), "overlay-fold") {
			t.Errorf("%v: a statement that cannot reach the touched chunk paid for a fold: %+v", eng, om)
		}
	}
}
