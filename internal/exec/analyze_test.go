package exec

import (
	"context"
	"regexp"
	"testing"

	"repro/internal/query"
)

// TestMetricsConsistencyAcrossEngines runs the same selection query
// through every engine and checks the reported counters are internally
// sane: probes bound hits, the fact cardinality bounds tuple traffic,
// and the shared registry records every run.
func TestMetricsConsistencyAcrossEngines(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	reg := e.Context().Registry()

	engines := []Engine{Auto, ArrayEngine, StarJoinEngine, BitmapEngine}
	facts := int64(cat.Stats.FactTuples)
	for _, eng := range engines {
		qr, err := e.ExecuteSQLContext(context.Background(), testQ2, eng)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		m := qr.Metrics
		if m.ProbeHits > m.Probes {
			t.Fatalf("engine %v: ProbeHits %d > Probes %d", eng, m.ProbeHits, m.Probes)
		}
		if m.TuplesScanned > facts {
			t.Fatalf("engine %v: TuplesScanned %d > fact tuples %d", eng, m.TuplesScanned, facts)
		}
		if m.TuplesFetched > facts {
			t.Fatalf("engine %v: TuplesFetched %d > fact tuples %d", eng, m.TuplesFetched, facts)
		}
		if m.CellsScanned < 0 || m.ChunksRead < 0 || m.BitmapsRead < 0 || m.BitmapANDs < 0 {
			t.Fatalf("engine %v: negative counter in %+v", eng, m)
		}
		if qr.Trace == nil || len(qr.Trace.Root.Children) == 0 {
			t.Fatalf("engine %v: no trace attached", eng)
		}
		switch qr.Plan {
		case "array-select-consolidate":
			if m.Probes+m.CellsScanned == 0 {
				t.Fatalf("array select probed and filter-scanned nothing: %+v", m)
			}
		case "starjoin-filter":
			if m.TuplesScanned != facts {
				t.Fatalf("star join scanned %d of %d tuples", m.TuplesScanned, facts)
			}
		case "bitmap-factfile":
			if m.BitmapsRead == 0 || m.TuplesFetched == 0 {
				t.Fatalf("bitmap plan reported no bitmap work: %+v", m)
			}
			// Each read bitmap is OR-merged once and each selection
			// applies one AND (testQ2 has two selections).
			if m.BitmapANDs > m.BitmapsRead+2 {
				t.Fatalf("BitmapANDs %d > BitmapsRead %d + selections 2", m.BitmapANDs, m.BitmapsRead)
			}
		}
	}

	snap := reg.Snapshot()
	var perEngine int64
	for _, name := range []string{
		"queries_array_total", "queries_starjoin_total", "queries_bitmap_total",
	} {
		perEngine += snap.Counter(name)
	}
	if perEngine != int64(len(engines)) {
		t.Fatalf("engine query counters total %d, want %d", perEngine, len(engines))
	}
	for _, h := range snap.Histograms {
		if h.Name == "query_seconds" {
			if h.Count != int64(len(engines)) {
				t.Fatalf("query_seconds count %d, want %d", h.Count, len(engines))
			}
			return
		}
	}
	t.Fatal("query_seconds histogram missing from snapshot")
}

// TestExplainAnalyzeActualsMatchCounters checks that the per-operator
// actuals EXPLAIN ANALYZE reports are exactly the run's counters.
func TestExplainAnalyzeActualsMatchCounters(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
		qr, err := e.ExecuteSQLContext(context.Background(), "explain analyze "+testQ2, eng)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		x := qr.Explanation
		if x == nil || !x.Analyzed {
			t.Fatalf("engine %v: explanation not analyzed", eng)
		}
		if len(qr.Rows) == 0 {
			t.Fatalf("engine %v: EXPLAIN ANALYZE returned no rows", eng)
		}
		root := x.Tree
		if !root.Analyzed || root.ActRows != int64(len(qr.Rows)) {
			t.Fatalf("engine %v: root act rows %d, result rows %d", eng, root.ActRows, len(qr.Rows))
		}
		if root.ActTime != qr.Elapsed {
			t.Fatalf("engine %v: root act time %v, elapsed %v", eng, root.ActTime, qr.Elapsed)
		}
		if len(root.Children) == 0 {
			t.Fatalf("engine %v: no operator children", eng)
		}
		child := root.Children[0]
		m := qr.Metrics
		var want int64
		switch child.Name {
		case "array-probe":
			want = m.ProbeHits
		case "array-scan":
			want = m.CellsScanned
		case "factfile-scan":
			want = m.TuplesScanned
		case "factfile-fetch":
			want = m.TuplesFetched
		default:
			t.Fatalf("engine %v: unexpected operator %q", eng, child.Name)
		}
		if !child.Analyzed || child.ActRows != want {
			t.Fatalf("engine %v: %s act rows %d, counter says %d", eng, child.Name, child.ActRows, want)
		}
		if float64(qr.IO.PhysicalReads) != child.ActIO {
			t.Fatalf("engine %v: %s act io %.1f, run physical reads %d", eng, child.Name, child.ActIO, qr.IO.PhysicalReads)
		}
	}

	// Plain EXPLAIN must stay plan-only: no rows, no actuals.
	qr, err := e.ExecuteSQLContext(context.Background(), "explain "+testQ2, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 0 || qr.Explanation.Analyzed || qr.Trace != nil {
		t.Fatal("plain EXPLAIN executed the query")
	}
}

// scrubTimes replaces wall-time fields, the only non-deterministic part
// of an EXPLAIN ANALYZE rendering on a warm cache.
var scrubTimes = regexp.MustCompile(`time=[0-9][^ )]*`)

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering: stable
// fields (plan, the model, candidates, est and act rows/io, counted and
// measured counters) byte-for-byte, with only wall times scrubbed. The
// plans are priced with the fixed test model, and the pool is warm
// after the build, so act io is deterministically 0.
func TestExplainAnalyzeGolden(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	e.ctx.model = &testModel

	spec, err := query.ParseAndCompile("explain analyze "+testQ2, cat.Schema)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := e.Execute(spec, BitmapEngine)
	if err != nil {
		t.Fatal(err)
	}
	got := scrubTimes.ReplaceAllString(qr.Explanation.String(), "time=<t>")

	const want = `plan: bitmap-factfile  engine=bitmap  S=0.166667  [forced, analyzed]
model: v1 cell=5.00ns probe=4.00ns tuple=40.00ns word=1.50ns page_hit=100ns page_miss=2000ns miss_share=0.00
candidates:
  -> bitmap-factfile            cost=3.3us io=7.0 rows=42
tree:
  consolidate [aggregate fetched tuples] (est rows=42 io=0.0) (act rows=2 io=0.0 time=<t>)
    factfile-fetch [fetch qualifying tuples in ascending tuple order] (est rows=42 io=1.0) (act rows=41 io=0.0)
      bitmap-and [AND 2 selection bitmaps] (est rows=42 io=4.0 words=38) (act rows=41 io=0.0 bitmaps=2 ands=4)
        bitmap [dim0.h02 = 'AA1']
        bitmap [dim1.h12 = 'AA0']
`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
