package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

// buildFig8DB loads the shape of the paper's Figure 8/9 experiment: the
// 40×40×40×100 cube of Data Set 2 at 1% density, with every hX2
// attribute at 10 distinct values so selecting k dimensions yields
// S = 10^-k — a sweep that straddles the S ≈ 0.00024 crossover.
func buildFig8DB(t testing.TB) (*storage.BufferPool, *catalog.Catalog) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 8192)
	cat := catalog.NewCatalog()
	cfg := datagen.WithSelectivity(datagen.Config{
		DimSizes: []int{40, 40, 40, 100},
		NumFacts: 64000,
		Seed:     7,
	}, 10)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(bp, cat, ds.Schema()); err != nil {
		t.Fatal(err)
	}
	for dim := range cfg.DimSizes {
		name := ds.Schema().Dimensions[dim].Name
		err := ds.EachDimRow(dim, func(key int64, attrs []string) error {
			return LoadDimensionRow(bp, cat, name, key, attrs)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := LoadFacts(bp, cat, ds.Facts()); err != nil {
		t.Fatal(err)
	}
	if err := BuildArray(bp, cat, ArrayBuildConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := BuildBitmapIndexes(bp, cat); err != nil {
		t.Fatal(err)
	}
	return bp, cat
}

// fig8Query selects on the first k dimensions (per-dimension fraction
// 1/10, so S = 10^-k) and groups by dim0.h01.
func fig8Query(k int) string {
	tables := []string{"fact", "dim0"}
	var preds []string
	for d := 0; d < k; d++ {
		if d > 0 {
			tables = append(tables, fmt.Sprintf("dim%d", d))
		}
		preds = append(preds, fmt.Sprintf("dim%d.h%d2 = 'AA1'", d, d))
	}
	sql := "select sum(volume), dim0.h01 from " + strings.Join(tables, ", ")
	if len(preds) > 0 {
		sql += " where " + strings.Join(preds, " and ")
	}
	return sql + " group by h01"
}

// TestPlannerCrossover sweeps selectivity across the paper's Fig 8/9
// crossover on real data and checks Auto switches engines exactly once,
// from array to bitmap+fact-file, choosing array at S ≥ 0.01 and
// bitmap at S = 10^-4 < 0.00024.
func TestPlannerCrossover(t *testing.T) {
	bp, cat := buildFig8DB(t)
	e := NewExecutor(bp, cat)

	plans := make([]string, 5)
	for k := 0; k <= 4; k++ {
		qr, err := e.ExecuteSQLContext(context.Background(), fig8Query(k), Auto)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		plans[k] = qr.Plan
		if x := qr.Explanation; x == nil || !x.CostBased || x.Forced {
			t.Fatalf("k=%d: explanation %+v not cost-based", k, x)
		} else {
			wantS := 1.0
			for i := 0; i < k; i++ {
				wantS /= 10
			}
			if x.Selectivity < wantS*0.99 || x.Selectivity > wantS*1.01 {
				t.Fatalf("k=%d: estimated S = %g, want %g", k, x.Selectivity, wantS)
			}
		}
		if len(qr.Rows) == 0 {
			t.Fatalf("k=%d: no rows", k)
		}
	}
	if plans[0] != "array-consolidate" {
		t.Errorf("k=0 (S=1): plan %s, want array-consolidate", plans[0])
	}
	for k := 1; k <= 2; k++ { // S = 0.1, 0.01: above the crossover
		if plans[k] != "array-select-consolidate" {
			t.Errorf("k=%d (S=1e-%d): plan %s, want array-select-consolidate", k, k, plans[k])
		}
	}
	if plans[4] != "bitmap-factfile" { // S = 1e-4: below the crossover
		t.Errorf("k=4 (S=1e-4): plan %s, want bitmap-factfile", plans[4])
	}
	// Monotone: once the planner leaves the array, it never goes back.
	switched := false
	for k := 1; k <= 4; k++ {
		if plans[k] == "bitmap-factfile" {
			switched = true
		} else if switched {
			t.Errorf("non-monotone sweep: %v", plans)
		}
	}

	// Forced engines are never overridden by the cost model, on either
	// side of the crossover.
	forced := []struct {
		k      int
		engine Engine
		plan   string
	}{
		{4, ArrayEngine, "array-select-consolidate"}, // bitmap is cheaper here
		{1, BitmapEngine, "bitmap-factfile"},         // array is cheaper here
		{1, StarJoinEngine, "starjoin-filter"},       // never cheapest
	}
	for _, c := range forced {
		qr, err := e.ExecuteSQLContext(context.Background(), fig8Query(c.k), c.engine)
		if err != nil {
			t.Fatalf("forced %v at k=%d: %v", c.engine, c.k, err)
		}
		if qr.Plan != c.plan {
			t.Errorf("forced %v at k=%d: plan %s, want %s", c.engine, c.k, qr.Plan, c.plan)
		}
		if x := qr.Explanation; x == nil || !x.Forced || x.CostBased {
			t.Errorf("forced %v at k=%d: explanation %+v not marked forced", c.engine, c.k, qr.Explanation)
		}
	}
}

// paper-shaped statistics: the disk-resident 640 000-tuple setup of
// §5.4, for costing plans without building the data.
func fig8Stats() *catalog.Stats {
	st := &catalog.Stats{
		FactTuples: 640000,
		FactPages:  4000,
		Array: &catalog.ArrayStats{
			DimSizes:     []int{40, 40, 40, 100},
			ChunkShape:   []int{20, 20, 20, 10},
			NumChunks:    80,
			ValidCells:   640000,
			EncodedBytes: 5 << 20,
			Pages:        660,
		},
		Bitmaps: map[string]catalog.BitmapIndexStats{},
	}
	for d, size := range []uint64{40, 40, 40, 100} {
		st.Dimensions = append(st.Dimensions, catalog.DimensionStats{
			Name:         fmt.Sprintf("dim%d", d),
			Members:      size,
			AttrDistinct: []uint64{10, 10},
			Pages:        1,
		})
		for _, attr := range []string{fmt.Sprintf("h%d1", d), fmt.Sprintf("h%d2", d)} {
			st.Bitmaps[catalog.BitmapKey(fmt.Sprintf("dim%d", d), attr)] =
				catalog.BitmapIndexStats{Values: 10, Pages: 98}
		}
	}
	return st
}

// TestCostModelCrossover checks the cost model alone — on synthetic
// paper-shaped statistics — orders array vs bitmap the way Figs 8/9 do.
func TestCostModelCrossover(t *testing.T) {
	st := fig8Stats()
	schema := fig8Schema()

	specFor := func(k int) *query.Spec {
		spec := &query.Spec{Group: make(core.GroupSpec, 4)}
		spec.Group[0] = core.DimGroup{Target: core.GroupByLevel, Level: 0}
		for d := 0; d < k; d++ {
			spec.Selections = append(spec.Selections,
				core.Selection{Dim: d, Level: 1, Values: []string{"AA1"}})
		}
		return spec
	}
	scanOf := func(spec *query.Spec, schema *catalog.StarSchema) planScan {
		return planScan{schema: schema, scan: core.ScanSpec{Selections: spec.Selections, Group: spec.Group}}
	}

	for _, c := range []struct {
		k          int
		bitmapWins bool
	}{
		{2, false}, // S = 0.01: array must win
		{4, true},  // S = 1e-4: bitmap must win
	} {
		spec := specFor(c.k)
		ac := (&arrayPlan{planScan: scanOf(spec, schema)}).Estimate(st)
		bc := (&bitmapPlan{planScan: scanOf(spec, schema)}).Estimate(st)
		sc := (&starJoinPlan{planScan: scanOf(spec, schema)}).Estimate(st)
		if (bc.Total() < ac.Total()) != c.bitmapWins {
			t.Errorf("k=%d: array %v vs bitmap %v, want bitmapWins=%v", c.k, ac, bc, c.bitmapWins)
		}
		// The star join reads everything regardless; with both indexes
		// present it must never be the cheapest on a selective query.
		if sc.Total() < ac.Total() && sc.Total() < bc.Total() {
			t.Errorf("k=%d: starjoin %v cheapest (array %v, bitmap %v)", c.k, sc, ac, bc)
		}
	}

	// Rows estimates follow S·|fact|.
	if r := (&bitmapPlan{planScan: scanOf(specFor(4), schema)}).Estimate(st).Rows; r != 64 {
		t.Errorf("k=4 estimated rows = %d, want 64", r)
	}
}

func fig8Schema() *catalog.StarSchema {
	s := &catalog.StarSchema{Fact: catalog.FactSchema{Name: "fact", Measure: "volume"}}
	for d := 0; d < 4; d++ {
		name := fmt.Sprintf("dim%d", d)
		s.Fact.Dims = append(s.Fact.Dims, name)
		s.Dimensions = append(s.Dimensions, catalog.DimensionSchema{
			Name:  name,
			Key:   fmt.Sprintf("d%d", d),
			Attrs: []string{fmt.Sprintf("h%d1", d), fmt.Sprintf("h%d2", d)},
		})
	}
	return s
}

func TestSelectionFractions(t *testing.T) {
	st := fig8Stats()
	sels := []core.Selection{
		{Dim: 0, Level: 1, Values: []string{"AA1", "AA2"}},        // 2/10
		{Dim: 1, Level: 1, Values: make([]string, 25)},            // 25/10 → clamped to 1
		{Dim: 2, Level: 9, Values: []string{"x"}},                 // no stats for level 9 → 1
		{Dim: 99, Level: 0, Values: []string{"x"}},                // out of range → ignored
		{Dim: 3, Level: 0, Values: []string{"A1"}},                // 1/10
		{Dim: 3, Level: 1, Values: []string{"AA0", "AA1", "AA2"}}, // ×3/10
	}
	fr := selectionFractions(st, 4, sels)
	want := []float64{0.2, 1, 1, 0.03}
	for d := range want {
		if diff := fr[d] - want[d]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("fraction[%d] = %g, want %g", d, fr[d], want[d])
		}
	}
	if s := combinedSelectivity(fr); s < 0.006-1e-12 || s > 0.006+1e-12 {
		t.Errorf("combined S = %g, want 0.006", s)
	}
}

// TestExplainDoesNotExecute: an EXPLAIN query plans but never runs —
// no rows, no timing — and carries the full explanation.
func TestExplainDoesNotExecute(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	qr, err := e.ExecuteSQLContext(context.Background(), "explain "+testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rows != nil || qr.Elapsed != 0 {
		t.Fatalf("explain executed: rows=%d elapsed=%v", len(qr.Rows), qr.Elapsed)
	}
	x := qr.Explanation
	if x == nil {
		t.Fatal("no explanation")
	}
	if x.Chosen != "array-select-consolidate" || qr.Plan != x.Chosen {
		t.Fatalf("chosen = %s, plan = %s", x.Chosen, qr.Plan)
	}
	// All three candidates are runnable here: array, bitmap, star join.
	if len(x.Candidates) != 3 {
		t.Fatalf("candidates = %+v", x.Candidates)
	}
	if cc := x.ChosenCost(); cc.Total() <= 0 {
		t.Fatalf("chosen cost = %v", cc)
	}
	if qr.Metrics.EstCostIO <= 0 && qr.Metrics.EstCostCPU <= 0 {
		t.Fatalf("estimate not surfaced in metrics: %+v", qr.Metrics)
	}
	// Cheapest-first ordering with the chosen plan marked.
	for i := 1; i < len(x.Candidates); i++ {
		if x.Candidates[i].Cost.Total() < x.Candidates[i-1].Cost.Total() {
			t.Fatalf("candidates not sorted: %+v", x.Candidates)
		}
	}
	if !x.Candidates[0].Chosen {
		t.Fatalf("cheapest candidate not chosen: %+v", x.Candidates)
	}
	out := x.String()
	for _, want := range []string{"array-select-consolidate", "candidates:", "->", "tree:", "cost-based", "index-list"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainSQLAndKeywordCase(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	x, err := e.ExplainSQLContext(context.Background(), testQ1, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if x.Chosen != "array-consolidate" || !x.CostBased {
		t.Fatalf("explanation = %+v", x)
	}
	// The EXPLAIN keyword is case-insensitive like the rest of the
	// grammar.
	qr, err := e.ExecuteSQLContext(context.Background(), "EXPLAIN "+testQ1, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rows != nil || qr.Explanation == nil {
		t.Fatalf("EXPLAIN (upper) executed or lost explanation: %+v", qr)
	}
}

// TestPlannerHeuristicFallback: a catalog without statistics (as written
// by a pre-version-2 engine) plans by the legacy structural preference
// order and says so.
func TestPlannerHeuristicFallback(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	cat.Stats = nil
	e := NewExecutor(bp, cat)

	qr, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan != "array-select-consolidate" {
		t.Fatalf("heuristic plan = %s, want array-select-consolidate", qr.Plan)
	}
	x := qr.Explanation
	if x == nil || x.CostBased || x.Forced {
		t.Fatalf("explanation = %+v", x)
	}
	if !strings.Contains(x.String(), "heuristic") {
		t.Fatalf("output does not mention heuristic:\n%s", x.String())
	}
}

// TestStatsCollectedOnLoad: LoadFacts/BuildArray/BuildBitmapIndexes
// leave complete planner statistics in the catalog.
func TestStatsCollectedOnLoad(t *testing.T) {
	_, cat, ds := buildTestDB(t, true, true)
	st := cat.Stats
	if !statsUsable(st) {
		t.Fatalf("stats unusable: %+v", st)
	}
	if st.FactTuples != uint64(ds.NumFacts()) || st.FactPages <= 0 {
		t.Fatalf("fact stats = %d tuples %d pages, want %d tuples", st.FactTuples, st.FactPages, ds.NumFacts())
	}
	if len(st.Dimensions) != 3 {
		t.Fatalf("dimension stats = %+v", st.Dimensions)
	}
	for d, want := range []struct{ members, h1, h2 uint64 }{
		{12, 4, 3}, {10, 3, 2}, {8, 2, 4},
	} {
		got := st.Dimensions[d]
		if got.Members != want.members || got.AttrDistinct[0] != want.h1 || got.AttrDistinct[1] != want.h2 {
			t.Errorf("dim%d stats = %+v, want %+v", d, got, want)
		}
	}
	if st.Array == nil || st.Array.ValidCells != int64(ds.NumFacts()) ||
		st.Array.EncodedBytes <= 0 || st.Array.NumChunks <= 0 {
		t.Fatalf("array stats = %+v", st.Array)
	}
	if len(st.Bitmaps) != 6 { // 3 dims × 2 attrs
		t.Fatalf("bitmap stats = %+v", st.Bitmaps)
	}
	for k, bs := range st.Bitmaps {
		if bs.Values <= 0 || bs.Pages <= 0 {
			t.Errorf("bitmap %s stats = %+v", k, bs)
		}
	}
}

// TestSharedContextConcurrentSessions exercises the satellite contract
// directly at the exec layer: many executors over ONE ExecContext run
// every engine concurrently. Run under -race.
func TestSharedContextConcurrentSessions(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	root := NewExecutor(bp, cat)

	want, err := root.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := NewSessionExecutor(root.Context())
			for i := 0; i < 10; i++ {
				eng := []Engine{Auto, ArrayEngine, StarJoinEngine, BitmapEngine}[(g+i)%4]
				qr, err := e.ExecuteSQLContext(context.Background(), testQ2, eng)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d engine %v: %w", g, eng, err)
					return
				}
				if !core.RowsEqual(qr.Rows, want.Rows) {
					errs <- fmt.Errorf("goroutine %d engine %v: rows diverged", g, eng)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInvalidateHandlesBumpsGeneration: invalidation must be observable
// so a stale handle can never serve a replaced object.
func TestInvalidateHandlesBumpsGeneration(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	if _, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto); err != nil {
		t.Fatal(err)
	}
	g0 := e.Context().Generation()
	e.InvalidateHandles()
	if g1 := e.Context().Generation(); g1 == g0 {
		t.Fatalf("generation unchanged across InvalidateHandles: %d", g1)
	}
	if err := e.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if g2 := e.Context().Generation(); g2 == g0 {
		t.Fatalf("generation unchanged across DropCaches: %d", g2)
	}
	// Queries still work after both forms of invalidation.
	if _, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto); err != nil {
		t.Fatal(err)
	}
}
