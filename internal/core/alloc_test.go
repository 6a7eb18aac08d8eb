package core

import "testing"

// TestWarmStarJoinBoundedAllocs is the relational twin of the chunk
// package's warm zero-alloc gate. The StarJoin and bitmap paths cannot
// be literally zero-alloc — the Result, its group labels, and per-query
// bookkeeping live on the GC heap — but with the dimension hash tables,
// aggregation set, cube, and bitmap word buffers carved from the pooled
// query arena, the warm per-query allocation count must be small and,
// critically, independent of the fact count: scanning 8x the tuples may
// not allocate more, or the arena plumbing has regressed.
func TestWarmStarJoinBoundedAllocs(t *testing.T) {
	spec := GroupByAttrs(3, 0)
	sels := []Selection{{Dim: 0, Level: 0, Values: []string{"V0_0_0"}}}
	attrs := [][]int{{3}, {4}, {2}}

	// Same schema and attribute cardinalities, ~8x the cells: the group
	// count is fixed, only the scanned volume grows.
	small := buildFixture(t, 9, []int{5, 6, 4}, attrs, 0.4, []int{2, 3, 2})
	big := buildFixture(t, 9, []int{10, 12, 8}, attrs, 0.4, []int{4, 4, 4})

	measure := func(fx *fixture, name string, run func(fx *fixture)) float64 {
		run(fx) // warm the arena pool
		avg := testing.AllocsPerRun(50, func() { run(fx) })
		t.Logf("%s: %.1f allocs/op", name, avg)
		return avg
	}

	paths := []struct {
		name string
		run  func(fx *fixture)
	}{
		{"starjoin-consolidate", func(fx *fixture) {
			if _, _, err := StarJoinConsolidate(bg, fx.ff, fx.dims, ScanSpec{Group: spec}); err != nil {
				t.Fatal(err)
			}
		}},
		{"starjoin-select", func(fx *fixture) {
			if _, _, err := StarJoinConsolidate(bg, fx.ff, fx.dims, ScanSpec{Selections: sels, Group: spec}); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitmap-select", func(fx *fixture) {
			if _, _, err := BitmapSelectConsolidate(bg, fx.ff, fx.dims, fx.bmaps, ScanSpec{Selections: sels, Group: spec}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// The hard cap has headroom over the ~115-145 measured today; it
	// exists to catch a path regressing to per-tuple or per-cell heap
	// allocation, which lands in the thousands even on these fixtures.
	const cap = 400.0
	for _, p := range paths {
		smallAllocs := measure(small, p.name+"/small", p.run)
		bigAllocs := measure(big, p.name+"/8x-cells", p.run)
		if smallAllocs > cap || bigAllocs > cap {
			t.Errorf("%s: warm allocs %.1f (small) / %.1f (big) exceed cap %.0f",
				p.name, smallAllocs, bigAllocs, cap)
		}
		// Bounded means flat in data volume; allow slack for map growth
		// in the group-label bookkeeping.
		if bigAllocs > smallAllocs*1.5+32 {
			t.Errorf("%s: allocs scale with cells: %.1f -> %.1f", p.name, smallAllocs, bigAllocs)
		}
	}
}

// TestWarmArrayScanBoundedAllocs gates the array side the same way: a
// warm sequential Query 1 may not allocate more than it did before the
// chunk kernel landed (89 and 497 objects on these two fixtures at the
// parent commit). The kernel's tables come from the query arena, the
// geometry copies are taken once per query, and a chunk is read in place
// from the pinned frames with no per-page bookkeeping on the heap, so
// nothing is left per chunk: the slope check catches an allocation
// creeping back into the per-chunk path.
func TestWarmArrayScanBoundedAllocs(t *testing.T) {
	spec := GroupByAttrs(3, 0)
	attrs := [][]int{{3}, {4}, {2}}
	measure := func(dims []int, parent float64) (allocs float64, chunks int) {
		fx := buildFixture(t, 9, dims, attrs, 0.4, []int{2, 3, 2})
		run := func() {
			res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		run() // warm the arena pool
		allocs = testing.AllocsPerRun(50, run)
		chunks = fx.arr.Geometry().NumChunks()
		t.Logf("%d chunks: %.1f allocs/op (parent %.0f)", chunks, allocs, parent)
		if allocs > parent {
			t.Errorf("%d chunks: warm scan allocates %.1f objects, parent commit %.0f", chunks, allocs, parent)
		}
		return allocs, chunks
	}
	small, smallChunks := measure([]int{5, 6, 4}, 89)
	big, bigChunks := measure([]int{10, 12, 8}, 497)
	if slope := (big - small) / float64(bigChunks-smallChunks); slope > 0.5 {
		t.Errorf("warm scan allocates %.2f objects per extra chunk, want none", slope)
	}
}
