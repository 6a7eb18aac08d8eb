package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/btree"
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

// testModel is the fixed cost model the planner tests price with, so
// their choices and EXPLAIN's figures do not move with the machine: the
// order of what MeasureKernelCosts and MeasurePageCosts report on a
// 2-vCPU box.
var testModel = catalog.CostModel{
	Version: catalog.CostModelVersion,
	CellNS:  5, ProbeNS: 4, TupleNS: 40, WordNS: 1.5, PageHitNS: 100, PageMissNS: 2000,
}

// TestPlannerCrossover sweeps selectivity across the paper's Fig 8/9
// crossover on real data. At every selecting k the array and bitmap
// estimates must count the work their forced runs then count — chunks,
// cells and probes exactly (both come from the statement's one
// resolution and the chunk directory), as are the array's page pins;
// tuples fetched within three standard deviations of the count plus
// 10 % (independence across dimensions is an assumption, the single
// value's count is not), the bitmap plan's page pins within 10 % plus
// two — and
// Auto must choose the plan whose counted work is cheaper under the
// model. Each k logs one ledger line.
func TestPlannerCrossover(t *testing.T) {
	bp, cat := buildFig8DB(t)
	e := NewExecutor(bp, cat)
	e.ctx.model = &testModel
	pr, ok := e.ctx.pricing(cat.Stats)
	if !ok {
		t.Fatal("the fixture's statistics cannot price plans")
	}

	plans := make([]string, 5)
	expls := make([]*Explanation, 5)
	for k := 0; k <= 4; k++ {
		qr, err := e.ExecuteSQLContext(context.Background(), fig8Query(k), Auto)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		plans[k], expls[k] = qr.Plan, qr.Explanation
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
	for k := 1; k <= 4; k++ {
		est := map[Engine]Cost{}
		for _, c := range expls[k].Candidates {
			est[c.Engine] = c.Cost
		}
		lookups := btree.Lookups()
		arr, err := e.ExecuteSQLContext(context.Background(), fig8Query(k), ArrayEngine)
		if err != nil {
			t.Fatal(err)
		}
		if lookups = btree.Lookups() - lookups; lookups != int64(k) {
			t.Errorf("k=%d: planning and running the array plan made %d B-tree lookups, want one per selected value", k, lookups)
		}
		bm, err := e.ExecuteSQLContext(context.Background(), fig8Query(k), BitmapEngine)
		if err != nil {
			t.Fatal(err)
		}
		am := arr.Metrics
		actArray := Work{
			Chunks: float64(am.ChunksRead), Cells: float64(am.CellsScanned), Probes: float64(am.Probes),
			// The chunk pages the run pinned, and the B-tree pages
			// resolving the statement did.
			Pages: float64(arr.IO.LogicalReads),
		}
		actBitmap := Work{
			Tuples: float64(bm.Metrics.TuplesFetched),
			// The whole-bitmap passes and the stored values' literal words
			// are fixed by the fixture; the estimate counts them exactly.
			Words: est[BitmapEngine].Work.Words,
			Pages: float64(bm.IO.LogicalReads),
		}
		ea, eb := est[ArrayEngine].Work, est[BitmapEngine].Work
		if ea.Chunks != actArray.Chunks || ea.Cells != actArray.Cells || ea.Probes != actArray.Probes || ea.Pages != actArray.Pages {
			t.Errorf("k=%d: array estimate counts %+v, the run %+v", k, ea, actArray)
		}
		if d, act := math.Abs(eb.Tuples-actBitmap.Tuples), actBitmap.Tuples; d > 3*math.Sqrt(act)+0.1*act+1 {
			t.Errorf("k=%d: bitmap estimate fetches %.1f tuples, the run %.0f", k, eb.Tuples, act)
		}
		if d, act := math.Abs(eb.Pages-actBitmap.Pages), actBitmap.Pages; d > 0.1*act+2 {
			t.Errorf("k=%d: bitmap estimate pins %.1f pages, the run %.0f", k, eb.Pages, act)
		}
		priceArray := pr.price(actArray, actArray.Pages, max(am.ParallelDegree, 1))
		priceBitmap := pr.price(actBitmap, actBitmap.Pages, 1)
		want := "array-select-consolidate"
		if priceBitmap < priceArray {
			want = "bitmap-factfile"
		}
		if plans[k] != want {
			t.Errorf("k=%d: Auto chose %s; the runs' counted work prices array %.1fus, bitmap %.1fus",
				k, plans[k], priceArray/1e3, priceBitmap/1e3)
		}
		t.Logf("ledger k=%d plan=%s array est{chunks=%.0f cells=%.0f probes=%.0f pages=%.0f %.1fus} act{chunks=%.0f cells=%.0f probes=%.0f pages=%.0f %.1fus} "+
			"bitmap est{tuples=%.1f words=%.0f pages=%.1f %.1fus} act{tuples=%.0f pages=%.0f %.1fus}",
			k, plans[k], ea.Chunks, ea.Cells, ea.Probes, ea.Pages, est[ArrayEngine].NS/1e3,
			actArray.Chunks, actArray.Cells, actArray.Probes, actArray.Pages, priceArray/1e3,
			eb.Tuples, eb.Words, eb.Pages, est[BitmapEngine].NS/1e3,
			actBitmap.Tuples, actBitmap.Pages, priceBitmap/1e3)
	}

	// Forced engines are never overridden by the cost model, on either
	// side of the crossover.
	forced := []struct {
		k      int
		engine Engine
		plan   string
	}{
		{4, ArrayEngine, "array-select-consolidate"},
		{1, BitmapEngine, "bitmap-factfile"},
		{1, StarJoinEngine, "starjoin-filter"}, // never cheapest
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

// TestCostModelCrossover checks the pricing alone, on synthetic
// paper-shaped statistics without per-value counts: every candidate's
// time is the model's price of the work it counted, the bitmap plan
// counts S·|fact| tuples fetched from no more pages than that or the
// fact file has, and the star join — it reads everything whatever the
// selectivity — is never cheaper than the bitmap plan on a selective
// query.
func TestCostModelCrossover(t *testing.T) {
	st := fig8Stats()
	schema := fig8Schema()
	pr := pricing{model: &testModel}

	specFor := func(k int) *query.Spec {
		spec := &query.Spec{Group: make(core.GroupSpec, 4)}
		spec.Group[0] = core.DimGroup{Target: core.GroupByLevel, Level: 0}
		for d := 0; d < k; d++ {
			spec.Selections = append(spec.Selections,
				core.Selection{Dim: d, Level: 1, Values: []string{"AA1"}})
		}
		return spec
	}
	// The array plan counts from a resolution against real chunks; the
	// statistics have none, so it is handed one's count.
	reach := &chunkReach{work: core.ArrayWork{Chunks: 16, Pages: 128, Probes: 6400}}
	scanOf := func(spec *query.Spec, schema *catalog.StarSchema) planScan {
		return planScan{schema: schema, reach: reach, scan: core.ScanSpec{Selections: spec.Selections, Group: spec.Group}}
	}

	for _, k := range []int{2, 4} {
		spec := specFor(k)
		ap := &arrayPlan{planScan: scanOf(spec, schema)}
		bp := &bitmapPlan{planScan: scanOf(spec, schema)}
		sp := &starJoinPlan{planScan: scanOf(spec, schema)}
		ac, bc, sc := ap.Estimate(st, pr), bp.Estimate(st, pr), sp.Estimate(st, pr)
		for _, c := range []struct {
			name string
			cost Cost
			deg  int
		}{{"array", ac, ap.estDeg}, {"bitmap", bc, 1}, {"starjoin", sc, sp.estDeg}} {
			if want := pr.price(c.cost.Work, c.cost.IO, c.deg); math.Abs(c.cost.NS-want) > 1e-9*want {
				t.Errorf("k=%d: %s costs %v, its counted work %+v prices %.1fns", k, c.name, c.cost, c.cost.Work, want)
			}
		}
		wantTuples := float64(st.FactTuples) * math.Pow(0.1, float64(k))
		if math.Abs(bc.Work.Tuples-wantTuples) > 1e-6*wantTuples {
			t.Errorf("k=%d: bitmap counts %.1f tuples fetched, want S·|fact| = %.1f", k, bc.Work.Tuples, wantTuples)
		}
		if bp.estFetch > bc.Work.Tuples || bp.estFetch > float64(st.FactPages) {
			t.Errorf("k=%d: bitmap fetches %.1f pages for %.1f tuples from a %d-page fact file",
				k, bp.estFetch, bc.Work.Tuples, st.FactPages)
		}
		if sc.Total() < bc.Total() {
			t.Errorf("k=%d: starjoin %v cheaper than bitmap %v", k, sc, bc)
		}
	}

	// Rows estimates follow S·|fact|.
	if r := (&bitmapPlan{planScan: scanOf(specFor(4), schema)}).Estimate(st, pr).Rows; r != 64 {
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
	if qr.Metrics.EstCostIO <= 0 && qr.Metrics.EstNS <= 0 {
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
	if _, ok := (&ExecContext{bp: storage.NewBufferPool(storage.NewMemDiskManager(), 1)}).pricing(st); !ok {
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

// TestOneLookupPerSelectedValue: an array-plan statement resolves its
// index lists once, when it is planned — the estimate counts from that
// resolution and the run folds by it — so planning and running it make
// exactly one B-tree lookup per selected value, and a run of the
// memoised statement makes none.
func TestOneLookupPerSelectedValue(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	e.ctx.model = &testModel
	const sql = `select sum(volume), dim0.h01 from fact, dim0, dim1, dim2
		where dim0.h02 in ('AA0', 'AA1') and dim1.h12 = 'AA0' and dim2.h22 in ('AA1', 'AA2', 'AA3')
		group by h01`
	for run, want := range []int64{6, 6, 0} { // the memo keeps a text from its second sighting
		lookups := btree.Lookups()
		qr, err := e.ExecuteSQLContext(context.Background(), sql, ArrayEngine)
		if err != nil {
			t.Fatal(err)
		}
		if got := btree.Lookups() - lookups; got != want {
			t.Errorf("run %d (memo %s): %d B-tree lookups, want %d", run, qr.Explanation.Memo, got, want)
		}
	}
}
