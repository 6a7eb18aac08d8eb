package core

import (
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestRollUpMatchesDirectConsolidation(t *testing.T) {
	fx := defaultFixture(t, 41)
	spec := GroupByAttrs(3, 0)
	base, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Roll up dimension 1 (group-dim index 1) and compare with a direct
	// consolidation that collapses it.
	rolled, err := base.RollUp(1)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupSpec{
		{Target: GroupByLevel, Level: 0},
		{Target: Collapse},
		{Target: GroupByLevel, Level: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !RowsEqual(rolled.SortedRows(), direct.SortedRows()) {
		t.Fatalf("rollup != direct: %s", DiffRows(rolled.SortedRows(), direct.SortedRows()))
	}
	if _, err := base.RollUp(9); err == nil {
		t.Fatal("RollUp out of range succeeded")
	}
}

func TestArrayCubeMatchesNaive(t *testing.T) {
	fx := defaultFixture(t, 42)
	spec := GroupByAttrs(3, 0)
	fast, _, err := ArrayCube(fx.arr, spec)
	if err != nil {
		t.Fatalf("ArrayCube: %v", err)
	}
	naive, _, err := CubeNaive(fx.arr, spec)
	if err != nil {
		t.Fatalf("CubeNaive: %v", err)
	}
	if len(fast) != 8 || len(naive) != 8 { // 2^3 cuboids
		t.Fatalf("cuboid counts: fast=%d naive=%d", len(fast), len(naive))
	}
	fastBy := map[string]*Result{}
	for _, c := range fast {
		fastBy[c.Key()] = c.Result
	}
	for _, nc := range naive {
		fc, ok := fastBy[nc.Key()]
		if !ok {
			t.Fatalf("cuboid %s missing from lattice cube", nc.Key())
		}
		if !RowsEqual(fc.SortedRows(), nc.Result.SortedRows()) {
			t.Fatalf("cuboid %s differs: %s", nc.Key(),
				DiffRows(fc.SortedRows(), nc.Result.SortedRows()))
		}
	}
}

func TestArrayCubeScansArrayOnce(t *testing.T) {
	fx := defaultFixture(t, 43)
	spec := GroupByAttrs(3, 0)
	_, mFast, err := ArrayCube(fx.arr, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, mNaive, err := CubeNaive(fx.arr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mFast.CellsScanned*2 > mNaive.CellsScanned {
		t.Fatalf("lattice cube scanned %d cells, naive %d — expected one scan vs eight",
			mFast.CellsScanned, mNaive.CellsScanned)
	}
}

func TestArrayCubeWithMixedSpec(t *testing.T) {
	fx := defaultFixture(t, 44)
	// Only two grouped dimensions -> 4 cuboids; dim1 stays collapsed in
	// every cuboid.
	spec := GroupSpec{
		{Target: GroupByLevel, Level: 1},
		{Target: Collapse},
		{Target: GroupByKey},
	}
	cuboids, _, err := ArrayCube(fx.arr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuboids) != 4 {
		t.Fatalf("cuboids = %d, want 4", len(cuboids))
	}
	// The empty cuboid equals the global aggregate.
	for _, c := range cuboids {
		if len(c.GroupDims) != 0 {
			continue
		}
		rows := c.Result.Rows()
		if len(rows) != 1 || rows[0].Count != fx.arr.NumValidCells() {
			t.Fatalf("apex cuboid = %+v", rows)
		}
	}
}

func TestMergePartialResults(t *testing.T) {
	fx := defaultFixture(t, 45)
	spec := GroupByAttrs(3, 0)
	whole, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	par, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec, Workers: 4})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !RowsEqual(par.SortedRows(), whole.SortedRows()) {
		t.Fatalf("parallel != serial: %s", DiffRows(par.SortedRows(), whole.SortedRows()))
	}
	if m.CellsScanned != fx.arr.NumValidCells() {
		t.Fatalf("parallel scanned %d cells, want %d", m.CellsScanned, fx.arr.NumValidCells())
	}
	// Degenerate worker counts.
	for _, w := range []int{0, 1, 1000} {
		p, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !RowsEqual(p.SortedRows(), whole.SortedRows()) {
			t.Fatalf("workers=%d differs", w)
		}
	}
	// Merge validation.
	other, _, _ := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupSpec{
		{Target: Collapse}, {Target: Collapse}, {Target: Collapse},
	}})
	if err := whole.Merge(other); err == nil {
		t.Fatal("Merge of incompatible results succeeded")
	}
}

// Property: parallel consolidation equals serial for random worker
// counts and fixtures.
func TestQuickParallelEqualsSerial(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		fx := buildFixture(t, seed, []int{6, 7, 5}, [][]int{{3}, {2}, {4}}, 0.3, []int{2, 3, 2})
		spec := GroupByAttrs(3, 0)
		serial, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
		if err != nil {
			return false
		}
		par, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec, Workers: int(workersRaw)%8 + 1})
		if err != nil {
			return false
		}
		return RowsEqual(par.SortedRows(), serial.SortedRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeResultRoundtrip(t *testing.T) {
	fx := defaultFixture(t, 46)
	spec := GroupByAttrs(3, 0)
	res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 1024)
	arr, dims, err := MaterializeResult(bp, res, MaterializeOptions{
		DimNames: []string{"d0g", "d1g", "d2g"},
		AttrName: "grp",
	})
	if err != nil {
		t.Fatalf("MaterializeResult: %v", err)
	}
	if len(dims) != 3 || dims[0].Schema.Name != "d0g" || dims[0].Schema.Attrs[0] != "grp" {
		t.Fatalf("dims = %+v", dims[0].Schema)
	}
	if arr.NumValidCells() != int64(res.NumGroups()) {
		t.Fatalf("materialized cells = %d, want %d", arr.NumValidCells(), res.NumGroups())
	}

	// Re-consolidating the materialized result over everything must
	// reproduce the original grand total (sum is distributive).
	reagg, _, err := ArrayConsolidate(bg, arr, ScanSpec{Group: GroupSpec{
		{Target: Collapse}, {Target: Collapse}, {Target: Collapse},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wantTotal int64
	for _, r := range res.Rows() {
		wantTotal += r.Sum
	}
	rows := reagg.Rows()
	if len(rows) != 1 || rows[0].Sum != wantTotal {
		t.Fatalf("re-aggregated total = %+v, want %d", rows, wantTotal)
	}

	// Grouping the materialized array by its label attribute must match
	// rolling up the original result.
	grouped, _, err := ArrayConsolidate(bg, arr, ScanSpec{Group: GroupSpec{
		{Target: GroupByLevel, Level: 0}, {Target: Collapse}, {Target: Collapse},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := res.RollUp(2)
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := r1.RollUp(1)
	if err != nil {
		t.Fatal(err)
	}
	gr := grouped.SortedRows()
	rr := rolled.SortedRows()
	if len(gr) != len(rr) {
		t.Fatalf("group counts differ: %d vs %d", len(gr), len(rr))
	}
	for i := range gr {
		// Sums must agree; counts differ by design (the materialized
		// array has one cell per group).
		if gr[i].Groups[0] != rr[i].Groups[0] || gr[i].Sum != rr[i].Sum {
			t.Fatalf("group %d: %+v vs %+v", i, gr[i], rr[i])
		}
	}
}

func TestMaterializeResultErrors(t *testing.T) {
	fx := defaultFixture(t, 47)
	res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupSpec{
		{Target: Collapse}, {Target: Collapse}, {Target: Collapse},
	}})
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 64)
	if _, _, err := MaterializeResult(bp, res, MaterializeOptions{}); err == nil {
		t.Fatal("materializing a collapsed result succeeded")
	}
	res2, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupByAttrs(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MaterializeResult(bp, res2, MaterializeOptions{Agg: Avg}); err == nil {
		t.Fatal("materializing avg succeeded")
	}
}
