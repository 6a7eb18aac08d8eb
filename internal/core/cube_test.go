package core

import (
	"testing"
	"testing/quick"

	"repro/internal/chunk"
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
	fast, _, err := ArrayCube(fx.arr, chunk.View{}, spec)
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
	_, mFast, err := ArrayCube(fx.arr, chunk.View{}, spec)
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
	cuboids, _, err := ArrayCube(fx.arr, chunk.View{}, spec)
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
