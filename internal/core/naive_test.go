package core

import (
	"testing"
)

func TestNaiveSelectMatchesOptimized(t *testing.T) {
	fx := defaultFixture(t, 31)
	cases := [][]Selection{
		nil,
		{{Dim: 0, Level: 0, Values: []string{"V0_0_0"}}},
		{{Dim: 0, Level: 1, Values: []string{"V0_1_0"}}, {Dim: 2, Level: 0, Values: []string{"V2_0_1"}}},
	}
	for i, sels := range cases {
		spec := GroupByAttrs(3, 0)
		want, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: sels, Group: spec})
		if err != nil {
			t.Fatalf("case %d optimized: %v", i, err)
		}
		got, _, err := ArraySelectConsolidateNaive(fx.arr, sels, spec)
		if err != nil {
			t.Fatalf("case %d naive: %v", i, err)
		}
		if !RowsEqual(got.SortedRows(), want.SortedRows()) {
			t.Fatalf("case %d: naive != optimized: %s", i,
				DiffRows(got.SortedRows(), want.SortedRows()))
		}
	}
}

func TestNaiveSelectReadsMoreChunks(t *testing.T) {
	// With a selective predicate on a non-leading dimension, the naive
	// index-order enumeration thrashes across chunks while the
	// chunk-ordered enumeration reads each qualifying chunk once.
	fx := buildFixture(t, 33, []int{16, 16}, [][]int{{16}, {4}}, 0.6, []int{4, 4})
	val := fx.arr.Dims()[1].Levels[0].Dict[0]
	sels := []Selection{{Dim: 1, Level: 0, Values: []string{val}}}
	spec := GroupSpec{{Target: Collapse}, {Target: Collapse}}

	optRes, opt, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: sels, Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, naive, err := ArraySelectConsolidateNaive(fx.arr, sels, spec)
	if err != nil {
		t.Fatal(err)
	}
	if naive.ChunksRead <= opt.ChunksRead {
		t.Fatalf("naive read %d chunks, optimized %d — expected chunk thrashing",
			naive.ChunksRead, opt.ChunksRead)
	}
	// The optimized path probes a chunk or filter-scans it, whichever is
	// cheaper there, so only the answers are comparable, not the probes.
	if got, want := optRes.SortedRows(), naiveRes.SortedRows(); !RowsEqual(got, want) {
		t.Fatalf("optimized != naive: %s", DiffRows(got, want))
	}
}

func TestNaiveSelectErrors(t *testing.T) {
	fx := defaultFixture(t, 34)
	if _, _, err := ArraySelectConsolidateNaive(fx.arr,
		[]Selection{{Dim: 9, Level: 0, Values: []string{"x"}}}, GroupByAttrs(3, 0)); err == nil {
		t.Fatal("bad selection accepted")
	}
	if _, _, err := ArraySelectConsolidateNaive(fx.arr, nil, GroupSpec{{Target: GroupByKey}}); err == nil {
		t.Fatal("short spec accepted")
	}
	// Empty result path.
	res, _, err := ArraySelectConsolidateNaive(fx.arr,
		[]Selection{{Dim: 0, Level: 0, Values: []string{"NOPE"}}}, GroupByAttrs(3, 0))
	if err != nil || res.NumGroups() != 0 {
		t.Fatalf("empty selection = (%d, %v)", res.NumGroups(), err)
	}
}
