package core

import (
	"context"
	"errors"
	"testing"
)

// parallelCase is one (selections, group spec) workload the differential
// tests run every engine over.
type parallelCase struct {
	name string
	sels []Selection
	spec GroupSpec
}

func parallelCases() []parallelCase {
	return []parallelCase{
		{name: "full-scan-attrs", spec: GroupByAttrs(3, 0)},
		{name: "full-scan-mixed", spec: GroupSpec{
			{Target: GroupByLevel, Level: 1},
			{Target: Collapse},
			{Target: GroupByKey},
		}},
		{name: "select-single", spec: GroupByAttrs(3, 0),
			sels: []Selection{{Dim: 0, Level: 1, Values: []string{"V0_1_0"}}}},
		{name: "select-multi", spec: GroupByAttrs(3, 0),
			sels: []Selection{
				{Dim: 0, Level: 0, Values: []string{"V0_0_0", "V0_0_1"}},
				{Dim: 2, Level: 1, Values: []string{"V2_1_0"}},
			}},
		{name: "select-empty", spec: GroupByAttrs(3, 0),
			sels: []Selection{{Dim: 1, Level: 0, Values: []string{"NO_SUCH_VALUE"}}}},
	}
}

// TestParallelEqualsSequentialAllEngines is the differential suite: for
// every engine and every degree in {1, 2, 8}, the parallel algorithm
// must return exactly the rows its sequential counterpart returns, and
// the additive counters (tuples/cells scanned, probe hits, chunks read,
// bitmap ANDs) must sum to the sequential totals — the dispenser hands
// out every unit exactly once, and an operation counts once whatever
// the degree.
func TestParallelEqualsSequentialAllEngines(t *testing.T) {
	fx := defaultFixture(t, 42)
	degrees := []int{1, 2, 8}

	for _, tc := range parallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ReferenceConsolidate(fx.ff, fx.dims, tc.sels, tc.spec)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, eng := range engines {
				var seqM Metrics
				for i, deg := range degrees {
					res, m, err := fx.run(bg, eng, ScanSpec{Selections: tc.sels, Group: tc.spec, Workers: deg})
					if err != nil {
						t.Fatalf("%s degree %d: %v", eng, deg, err)
					}
					if got := res.SortedRows(); !RowsEqual(got, want) {
						t.Fatalf("%s degree %d != reference: %s", eng, deg, DiffRows(got, want))
					}
					if i == 0 {
						seqM = m
						continue
					}
					// Work-conservation: fan-out must not scan or probe
					// more than the sequential pass did.
					if m.TuplesScanned != seqM.TuplesScanned {
						t.Errorf("%s degree %d: TuplesScanned = %d, want %d",
							eng, deg, m.TuplesScanned, seqM.TuplesScanned)
					}
					if m.CellsScanned != seqM.CellsScanned {
						t.Errorf("%s degree %d: CellsScanned = %d, want %d",
							eng, deg, m.CellsScanned, seqM.CellsScanned)
					}
					if m.ProbeHits != seqM.ProbeHits {
						t.Errorf("%s degree %d: ProbeHits = %d, want %d",
							eng, deg, m.ProbeHits, seqM.ProbeHits)
					}
					if m.ChunksRead != seqM.ChunksRead {
						t.Errorf("%s degree %d: ChunksRead = %d, want %d",
							eng, deg, m.ChunksRead, seqM.ChunksRead)
					}
					if m.BitmapANDs != seqM.BitmapANDs {
						t.Errorf("%s degree %d: BitmapANDs = %d, want %d",
							eng, deg, m.BitmapANDs, seqM.BitmapANDs)
					}
				}
			}
		})
	}
}

// TestZeroScanSpecIsSequential pins the zero value: a ScanSpec that sets
// nothing but the grouping runs every engine over the whole data set,
// sequentially — Workers 0 is not "every core" — and agrees with the
// reference.
func TestZeroScanSpecIsSequential(t *testing.T) {
	fx := defaultFixture(t, 46)
	spec := GroupByAttrs(3, 0)
	want, err := ReferenceConsolidate(fx.ff, fx.dims, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		res, m, err := fx.run(bg, eng, ScanSpec{Group: spec})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if got := res.SortedRows(); !RowsEqual(got, want) {
			t.Fatalf("%s != reference: %s", eng, DiffRows(got, want))
		}
		if m.ParallelDegree > 1 || len(m.WorkerRows) != 0 {
			t.Errorf("%s: zero ScanSpec ran at degree %d with worker rows %v", eng, m.ParallelDegree, m.WorkerRows)
		}
	}
}

// TestParallelClampNoIdleWorkers asks for an absurd degree on a tiny
// fixture and asserts (a) it completes — no idle worker can deadlock the
// merge — and (b) the recorded degree was clamped to the available work
// units, so no spawned worker had nothing to do.
func TestParallelClampNoIdleWorkers(t *testing.T) {
	fx := defaultFixture(t, 43)
	ctx := context.Background()
	const degree = 1000

	res, m, err := ArrayConsolidate(ctx, fx.arr, ScanSpec{Group: GroupByAttrs(3, 0), Workers: degree})
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	if units := fx.arr.Geometry().NumChunks(); m.ParallelDegree > units {
		t.Errorf("array degree %d ran, but only %d chunks exist", m.ParallelDegree, units)
	}
	want, err := ReferenceConsolidate(fx.ff, fx.dims, nil, GroupByAttrs(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SortedRows(); !RowsEqual(got, want) {
		t.Fatalf("clamped array run != reference: %s", DiffRows(got, want))
	}

	res2, m2, err := StarJoinConsolidate(ctx, fx.ff, fx.dims, ScanSpec{Group: GroupByAttrs(3, 0), Workers: degree})
	if err != nil {
		t.Fatalf("starjoin: %v", err)
	}
	if units := fx.ff.NumExtents(); m2.ParallelDegree > units {
		t.Errorf("starjoin degree %d ran, but only %d extents exist", m2.ParallelDegree, units)
	}
	if got := res2.SortedRows(); !RowsEqual(got, want) {
		t.Fatalf("clamped starjoin run != reference: %s", DiffRows(got, want))
	}
}

// TestClampWorkers pins the clamp arithmetic, including the one meaning
// of a degree below 1: sequential, whatever GOMAXPROCS is.
func TestClampWorkers(t *testing.T) {
	cases := []struct{ workers, units, want int }{
		{4, 2, 2},    // capped at units
		{4, 100, 4},  // unchanged
		{1, 100, 1},  // sequential stays sequential
		{7, 0, 1},    // no units -> 1
		{0, 100, 1},  // the zero value is sequential
		{-3, 100, 1}, // and so is anything below it
	}
	for _, c := range cases {
		if got := ClampWorkers(c.workers, c.units); got != c.want {
			t.Errorf("ClampWorkers(%d, %d) = %d, want %d", c.workers, c.units, got, c.want)
		}
	}
}

// TestParallelCancelPropagates cancels the context before the run and
// asserts every parallel algorithm surfaces context.Canceled instead of
// returning a partial result.
func TestParallelCancelPropagates(t *testing.T) {
	fx := defaultFixture(t, 44)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sels := []Selection{{Dim: 0, Level: 1, Values: []string{"V0_1_0"}}}
	spec := GroupByAttrs(3, 0)

	for _, eng := range engines {
		for _, sels := range [][]Selection{nil, sels} {
			_, _, err := fx.run(ctx, eng, ScanSpec{Selections: sels, Group: spec, Workers: 4})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s sels=%v: err = %v, want context.Canceled", eng, sels, err)
			}
		}
	}
}

// TestParallelDegreeRecorded asserts a genuinely parallel run records
// its degree, per-worker rows, and an efficiency in (0, 1].
func TestParallelDegreeRecorded(t *testing.T) {
	fx := defaultFixture(t, 45)
	res, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupByAttrs(3, 0), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if m.ParallelDegree != 2 {
		t.Fatalf("ParallelDegree = %d, want 2", m.ParallelDegree)
	}
	if len(m.WorkerRows) != 2 || len(m.WorkerIO) != 2 {
		t.Fatalf("worker slices = %v / %v, want length 2", m.WorkerRows, m.WorkerIO)
	}
	if m.ParallelEfficiency <= 0 || m.ParallelEfficiency > 1 {
		t.Fatalf("ParallelEfficiency = %v, want in (0, 1]", m.ParallelEfficiency)
	}
}
