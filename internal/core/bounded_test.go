package core

import (
	"testing"
	"testing/quick"
)

func TestBoundedConsolidateMatchesPlain(t *testing.T) {
	fx := defaultFixture(t, 61)
	spec := GroupByAttrs(3, 0)
	plain, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	want := plain.SortedRows()

	for _, maxCells := range []int{0, 1 << 20, 50, 24, 8} {
		rows, _, err := ArrayConsolidateBounded(fx.arr, spec, maxCells)
		if err != nil {
			t.Fatalf("maxCells=%d: %v", maxCells, err)
		}
		if !RowsEqual(rows, want) {
			t.Fatalf("maxCells=%d differs: %s", maxCells, DiffRows(rows, want))
		}
	}

	// Small bound forces multiple passes: chunk reads multiply.
	_, mOne, err := ArrayConsolidateBounded(fx.arr, spec, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, mMany, err := ArrayConsolidateBounded(fx.arr, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mMany.ChunksRead <= mOne.ChunksRead {
		t.Fatalf("bounded run did not rescan: %d vs %d chunk reads",
			mMany.ChunksRead, mOne.ChunksRead)
	}
}

func TestBoundedConsolidateCollapsedAndErrors(t *testing.T) {
	fx := defaultFixture(t, 62)
	collapsed := GroupSpec{{Target: Collapse}, {Target: Collapse}, {Target: Collapse}}
	rows, _, err := ArrayConsolidateBounded(fx.arr, collapsed, 1)
	if err != nil || len(rows) != 1 {
		t.Fatalf("collapsed bounded = (%d rows, %v)", len(rows), err)
	}

	// Bound smaller than one row of the trailing dims is rejected.
	spec := GroupByAttrs(3, 0)
	if _, _, err := ArrayConsolidateBounded(fx.arr, spec, 1); err == nil {
		t.Fatal("impossible bound accepted")
	}
	// Bad spec propagates.
	if _, _, err := ArrayConsolidateBounded(fx.arr, GroupSpec{{Target: GroupByKey}}, 100); err == nil {
		t.Fatal("short spec accepted")
	}
}

// Property: bounded equals plain for random bounds and fixtures.
func TestQuickBoundedEqualsPlain(t *testing.T) {
	f := func(seed int64, boundRaw uint16) bool {
		fx := buildFixture(t, seed, []int{5, 6, 4}, [][]int{{3}, {4}, {2}}, 0.4, []int{2, 3, 2})
		spec := GroupByAttrs(3, 0)
		plain, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
		if err != nil {
			return false
		}
		bound := int(boundRaw)%64 + 8 // >= trailing row size (4*2=8)
		rows, _, err := ArrayConsolidateBounded(fx.arr, spec, bound)
		if err != nil {
			return false
		}
		return RowsEqual(rows, plain.SortedRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
