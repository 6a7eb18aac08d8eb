package repro

import (
	"context"
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

// TestRebuildRefusedAfterCompactedIngest: cells ingested and compacted
// live in the array alone, so rebuilding it from the fact file is
// refused, and every engine answers as before the attempt.
func TestRebuildRefusedAfterCompactedIngest(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	retailIngest(t, db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	before := map[Engine][]Row{}
	for _, e := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
		r, err := db.QueryOn(retailQuery, e)
		if err != nil {
			t.Fatal(err)
		}
		before[e] = r.Rows
	}
	if err := db.BuildArray(ArrayConfig{ChunkShape: []int{4, 4, 3}}); err == nil {
		t.Fatal("BuildArray after a compacted ingest succeeded")
	}
	for e, want := range before {
		r, err := db.QueryOn(retailQuery, e)
		if err != nil {
			t.Fatal(err)
		}
		if !core.RowsEqual(r.Rows, want) {
			t.Errorf("%v after the refused rebuild: %s", e, core.DiffRows(r.Rows, want))
		}
	}
}
