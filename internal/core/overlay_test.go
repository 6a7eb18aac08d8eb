package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/factfile"
)

// TestOverlayEqualsReference is the overlay fold's differential: every
// engine, at degrees 1 and 4, must reproduce the reference over the
// merged fact file bit for bit — with the data at rest, and again with
// deltas pending over a fact file that is stale wherever they touched.
// The pending states place the deltas every way the overlay fold
// distinguishes: anywhere (which is all a statement without a selection
// can see), only in chunks outside the selection's candidates, in chunks
// of which the selection reaches a strict subset, and anywhere with a
// grouped dimension's key missing its dimension row (the inner join
// drops its cells; the array engine, which has the key in its own
// tables, sits that one out).
func TestOverlayEqualsReference(t *testing.T) {
	fx := defaultFixture(t, 77)
	rng := rand.New(rand.NewSource(77))
	type state struct {
		name    string
		overlay *pending
		truth   *factfile.File
		dims    []*catalog.DimensionTable
		engines []string
	}
	pending := func(name string, within func(cn int) bool) state {
		fold, mergedFF, _ := layOverlay(t, rng, fx, within)
		return state{name, fold, mergedFF, fx.dims, engines}
	}
	anywhere := pending("deltas-pending", nil)
	if len(anywhere.overlay.Chunks) == 0 {
		t.Fatal("the overlay touched no chunk")
	}
	dangling := anywhere
	dangling.name, dangling.dims, dangling.engines = "dangling-key", dimsWithoutRow(t, fx, 0, 4), []string{"starjoin", "bitmap"}

	var sawDisjoint, sawSubset bool
	for _, tc := range parallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			states := []state{{"at-rest", nil, fx.ff, fx.dims, engines}, anywhere, dangling}
			if len(tc.sels) > 0 {
				cand, err := SelectionChunks(fx.arr, tc.sels)
				if err != nil {
					t.Fatal(err)
				}
				reach := map[int]bool{}
				for _, cn := range cand {
					reach[cn] = true
				}
				disjoint := pending("deltas-unreachable", func(cn int) bool { return !reach[cn] })
				subset := pending("deltas-partly-reachable", func(cn int) bool { return !reach[cn] || cn%2 == 0 })
				states = append(states, disjoint, subset)
				sawDisjoint = sawDisjoint || len(cand) > 0 && len(disjoint.overlay.Chunks) > 0
				if n := len(intersectSorted(subset.overlay.Chunks, cand)); n > 0 && n < len(subset.overlay.Chunks) {
					sawSubset = true
				}
			}
			for _, st := range states {
				want, err := ReferenceConsolidate(st.truth, st.dims, tc.sels, tc.spec)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				run := *fx
				run.dims = st.dims
				for _, eng := range st.engines {
					var scanned [2]int64
					for i, workers := range []int{1, 4} {
						name := fmt.Sprintf("%s %s workers=%d", st.name, eng, workers)
						scan := st.overlay.on(ScanSpec{Selections: tc.sels, Group: tc.spec, Workers: workers})
						res, m, err := run.run(bg, eng, scan)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := res.SortedRows(); !RowsEqual(got, want) {
							t.Fatalf("%s != reference: %s", name, DiffRows(got, want))
						}
						res.Release()
						scanned[i] = m.TuplesScanned + m.CellsScanned + m.Probes
					}
					// Counter conservation: the workers together scan and
					// probe exactly what one sequential pass does.
					if scanned[1] != scanned[0] {
						t.Errorf("%s %s: workers=4 scanned %d tuples+cells, workers=1 %d", st.name, eng, scanned[1], scanned[0])
					}
				}
			}
		})
	}
	if !sawDisjoint || !sawSubset {
		t.Fatalf("no selection case had touched chunks all outside its candidates (%v) or partly inside (%v)", sawDisjoint, sawSubset)
	}
}

// dimsWithoutRow returns fx's dimension tables with dimension d's copy
// lacking the row of key.
func dimsWithoutRow(t *testing.T, fx *fixture, d int, key int64) []*catalog.DimensionTable {
	dt, err := catalog.CreateDimensionTable(fx.bp, fx.dims[d].Schema)
	if err != nil {
		t.Fatal(err)
	}
	err = fx.dims[d].Scan(func(k int64, attrs []string) error {
		if k == key {
			return nil
		}
		return dt.Insert(k, attrs)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := append([]*catalog.DimensionTable(nil), fx.dims...)
	out[d] = dt
	return out
}

// TestColdPlusHotEqualsWhole is the array engine's cut at the
// ingest-touched chunks: with deltas pending, the run that skips the Hot
// chunks and the run that reads only them tile the range, so their cubes
// Merge — in either order, from a kept heap copy of the cold one — into
// the uncut run's rows and the reference's, at every worker degree, with
// the cell and probe counts conserved. The cut is taken at the touched
// chunks, at a subset of them, and at chunks the statement may not reach
// at all.
func TestColdPlusHotEqualsWhole(t *testing.T) {
	fx := defaultFixture(t, 78)
	rng := rand.New(rand.NewSource(78))
	fold, truth, _ := layOverlay(t, rng, fx, nil)
	if len(fold.Chunks) < 2 {
		t.Fatalf("the overlay touched chunks %v, want several", fold.Chunks)
	}
	var everyOther []int
	for cn := 0; cn < fx.arr.Geometry().NumChunks(); cn += 2 {
		everyOther = append(everyOther, cn)
	}
	cuts := map[string][]int{"touched": fold.Chunks, "one": fold.Chunks[:1], "every-other": everyOther}
	twoSided := 0 // runs whose both sides read something
	for _, tc := range parallelCases() {
		want, err := ReferenceConsolidate(truth, fx.dims, tc.sels, tc.spec)
		if err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		for cut, hot := range cuts {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s cut=%s workers=%d", tc.name, cut, workers)
				scan := ScanSpec{Selections: tc.sels, Group: tc.spec, Workers: workers, View: fold.view}
				whole, wm, err := ArrayConsolidate(bg, fx.arr, scan)
				if err != nil {
					t.Fatalf("%s uncut: %v", name, err)
				}
				scan.Hot = hot
				cold, cm, err := ArrayConsolidate(bg, fx.arr, scan)
				if err != nil {
					t.Fatalf("%s cold: %v", name, err)
				}
				kept := cold.Clone()
				scan.OnlyHot = true
				hotRes, hm, err := ArrayConsolidate(bg, fx.arr, scan)
				if err != nil {
					t.Fatalf("%s hot: %v", name, err)
				}
				if err := cold.Merge(hotRes); err != nil {
					t.Fatal(err)
				}
				if err := hotRes.Merge(kept); err != nil {
					t.Fatal(err)
				}
				rows := whole.SortedRows()
				if got := cold.SortedRows(); !RowsEqual(got, rows) {
					t.Fatalf("%s: cold+hot != uncut: %s", name, DiffRows(got, rows))
				}
				if got := hotRes.SortedRows(); !RowsEqual(got, rows) {
					t.Fatalf("%s: hot+kept cold != uncut: %s", name, DiffRows(got, rows))
				}
				if got := hotRes.SortedRows(); !RowsEqual(got, want) {
					t.Fatalf("%s != reference: %s", name, DiffRows(got, want))
				}
				if got, want := cm.CellsScanned+cm.Probes+hm.CellsScanned+hm.Probes, wm.CellsScanned+wm.Probes; got != want {
					t.Errorf("%s: the sides visit %d cells+probes, the uncut run %d", name, got, want)
				}
				if cm.ChunksRead > 0 && hm.ChunksRead > 0 {
					twoSided++
				}
				cold.Release()
				whole.Release()
				hotRes.Release()
			}
		}
	}
	if twoSided < 10 {
		t.Fatalf("only %d runs had chunks on both sides of the cut", twoSided)
	}
}

// TestResultCloneOutlivesItsArena: a Clone is a GC-heap copy — releasing
// the query's cube leaves it whole, and merging into it leaves the
// original alone.
func TestResultCloneOutlivesItsArena(t *testing.T) {
	fx := defaultFixture(t, 5)
	spec := GroupByAttrs(3, 0)
	res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	want := res.SortedRows()
	kept := res.Clone()
	if kept.Bytes() <= 0 {
		t.Fatalf("Bytes = %d", kept.Bytes())
	}
	res.Release()
	twice := kept.Clone()
	if err := twice.Merge(kept); err != nil {
		t.Fatal(err)
	}
	if got := kept.SortedRows(); !RowsEqual(got, want) {
		t.Fatalf("the clone changed: %s", DiffRows(got, want))
	}
	for i, r := range twice.SortedRows() {
		if r.Sum != 2*want[i].Sum || r.Count != 2*want[i].Count || r.Min != want[i].Min || r.Max != want[i].Max {
			t.Fatalf("row %d of clone+clone = %+v, want twice %+v", i, r, want[i])
		}
	}
}
