package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// kernelCase is one random cube of the kernel differential: a fixture
// whose fact file already holds the state the array reaches once its
// pending overlay (if any) is merged on read.
type kernelCase struct {
	fx         *fixture
	attrCards  [][]int
	validCells int64
}

// randomKernelCase draws a geometry of 1-5 dimensions with sizes that
// need not be multiples of the chunk side (sides of 1 included), fills
// it, and for overlay cases lays random upserts and deletes over the
// array while the fact file gets the merged cells.
func randomKernelCase(t *testing.T, rng *rand.Rand, overlay bool) kernelCase {
	n := 1 + rng.Intn(5)
	dimSizes := make([]int, n)
	shape := make([]int, n)
	attrCards := make([][]int, n)
	for d := range dimSizes {
		dimSizes[d] = 1 + rng.Intn(9)
		if n <= 2 {
			dimSizes[d] += rng.Intn(24) // room for chunks big enough to be worth probing
		}
		shape[d] = 1 + rng.Intn(dimSizes[d])
		attrCards[d] = []int{1 + rng.Intn(dimSizes[d]), 1 + rng.Intn(3)}
	}
	fx := newFixtureDims(t, rng, dimSizes, attrCards)
	base := randomFacts(rng, dimSizes, []float64{0.05, 0.4, 0.95}[rng.Intn(3)])
	fx.load(t, base, shape)
	if !overlay {
		return kernelCase{fx, attrCards, int64(len(base.keys))}
	}
	fold, merged, validCells := layOverlay(t, rng, fx, nil)
	fx.arr, fx.ff = fold.Arr, merged
	return kernelCase{fx, attrCards, validCells}
}

// layOverlay puts a loaded fixture mid-ingest. It draws random upserts
// and deletes and returns them as an OverlayFold — a clone of fx.arr
// with the deltas pending, plus the chunks they touch — next to a fact
// file holding the state once they are merged, and that state's cell
// count. fx itself is unchanged, so its fact file is now stale in the
// touched chunks. within, when set, keeps the deltas to the chunks it
// accepts.
func layOverlay(t *testing.T, rng *rand.Rand, fx *fixture, within func(cn int) bool) (*OverlayFold, *factfile.File, int64) {
	g := fx.arr.Geometry()
	n := g.NumDims()
	// The test keys are 0..size-1 and the array indexes them in key
	// order, so a key vector doubles as the cell's coordinates.
	for d, dim := range fx.arr.Dims() {
		for idx, key := range dim.Keys {
			if key != int64(idx) {
				t.Fatalf("dimension %d indexes key %d at %d; the overlay assumes key order", d, key, idx)
			}
		}
	}
	type cellID struct{ cn, off int }
	merged := map[cellID]int64{}
	keysOf := map[cellID][]int64{}
	locate := func(keys []int64) cellID {
		coords := make([]int, n)
		for d, k := range keys {
			coords[d] = int(k)
		}
		cn, off := g.Locate(coords)
		id := cellID{cn, off}
		keysOf[id] = keys
		return id
	}
	err := fx.ff.Scan(func(_ uint64, rec []byte) error {
		keys := make([]int64, n)
		v, err := catalog.DecodeFact(rec, keys)
		merged[locate(keys)] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ov := map[int][]chunk.OverlayCell{}
	touched := map[cellID]bool{}
	for i := rng.Intn(int(g.NumCells())/2 + 2); i > 0; i-- {
		keys := make([]int64, n)
		for d := range keys {
			keys[d] = int64(rng.Intn(g.Dims()[d]))
		}
		id := locate(keys)
		if touched[id] || within != nil && !within(id.cn) {
			continue
		}
		touched[id] = true
		oc := chunk.OverlayCell{Offset: uint32(id.off), Value: rng.Int63n(1000) - 200, Delete: rng.Intn(3) == 0}
		ov[id.cn] = append(ov[id.cn], oc)
		if oc.Delete {
			delete(merged, id)
		} else {
			merged[id] = oc.Value
		}
	}
	fold := pendingOverlay(fx, ov)

	ids := make([]cellID, 0, len(merged))
	for id := range merged {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return ids[i].cn < ids[j].cn || ids[i].cn == ids[j].cn && ids[i].off < ids[j].off
	})
	file := &sliceFacts{}
	for _, id := range ids {
		file.keys = append(file.keys, keysOf[id])
		file.measures = append(file.measures, merged[id])
	}
	return fold, newFactFile(t, fx.bp, n, file), int64(len(merged))
}

// pendingOverlay returns a clone of fx.arr with ov (cells in any order)
// pending over it, and the chunks ov touches.
func pendingOverlay(fx *fixture, ov map[int][]chunk.OverlayCell) *OverlayFold {
	fold := &OverlayFold{Arr: fx.arr.Clone()}
	for cn := range ov {
		sort.Slice(ov[cn], func(i, j int) bool { return ov[cn][i].Offset < ov[cn][j].Offset })
		fold.Chunks = append(fold.Chunks, cn)
	}
	sort.Ints(fold.Chunks)
	fold.Arr.Store().SetOverlay(ov)
	return fold
}

// randomSpec mixes Collapse, GroupByKey and GroupByLevel.
func randomSpec(rng *rand.Rand, n int) GroupSpec {
	spec := make(GroupSpec, n)
	for d := range spec {
		spec[d] = DimGroup{Target: GroupTarget(rng.Intn(3)), Level: rng.Intn(2)}
	}
	return spec
}

// randomSelections draws, per dimension, no predicate, one that matches
// nothing, one naming every value of a level, or a random subset of a
// level's values — few values leave a chunk a small cross product to
// probe, many make filtering it cheaper.
func randomSelections(rng *rand.Rand, attrCards [][]int) []Selection {
	var sels []Selection
	for d, cards := range attrCards {
		level := rng.Intn(len(cards))
		value := func(v int) string { return fmt.Sprintf("V%d_%d_%d", d, level, v) }
		var values []string
		switch rng.Intn(6) {
		case 0, 1:
			continue
		case 2:
			values = []string{"absent"}
		case 3:
			for v := 0; v < cards[level]; v++ {
				values = append(values, value(v))
			}
		default:
			for v := 0; v < cards[level]; v++ {
				if rng.Intn(cards[level]) < 2 {
					values = append(values, value(v))
				}
			}
			if len(values) == 0 {
				values = []string{value(0)}
			}
		}
		sels = append(sels, Selection{Dim: d, Level: level, Values: values})
	}
	return sels
}

// TestKernelDifferential drives the one chunk kernel through every array
// path — full scans, selections that probe some chunks and filter
// others, sequential and parallel, with and without a pending
// delta overlay — over random geometries, and holds each answer to the
// reference consolidator's, cell for cell.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var probed, filtered int64
	for trial := 0; trial < 60; trial++ {
		c := randomKernelCase(t, rng, trial%2 == 1)
		fx := c.fx
		n := len(fx.dims)
		for q := 0; q < 4; q++ {
			spec := randomSpec(rng, n)
			sels := randomSelections(rng, c.attrCards)
			name := fmt.Sprintf("trial %d %v spec %v sels %v", trial, fx.arr.Geometry(), spec, sels)

			want, err := ReferenceConsolidate(fx.ff, fx.dims, nil, spec)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			wantSel, err := ReferenceConsolidate(fx.ff, fx.dims, sels, spec)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			var seq Metrics
			for _, deg := range []int{1, 2, 8} {
				res, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec, Workers: deg})
				if err != nil {
					t.Fatalf("%s degree %d: scan: %v", name, deg, err)
				}
				if got := res.SortedRows(); !RowsEqual(got, want) {
					t.Fatalf("%s degree %d: scan != reference: %s", name, deg, DiffRows(got, want))
				}
				if m.CellsScanned != c.validCells || m.Probes != 0 {
					t.Fatalf("%s degree %d: scan counted %d cells and %d probes, want %d and 0",
						name, deg, m.CellsScanned, m.Probes, c.validCells)
				}

				res, m, err = ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: sels, Group: spec, Workers: deg})
				if err != nil {
					t.Fatalf("%s degree %d: select: %v", name, deg, err)
				}
				if got := res.SortedRows(); !RowsEqual(got, wantSel) {
					t.Fatalf("%s degree %d: select != reference: %s", name, deg, DiffRows(got, wantSel))
				}
				if deg == 1 {
					seq = m
					probed += m.Probes
					filtered += m.CellsScanned
				} else if m.Probes != seq.Probes || m.ProbeHits != seq.ProbeHits ||
					m.CellsScanned != seq.CellsScanned || m.ChunksRead != seq.ChunksRead {
					t.Fatalf("%s degree %d: select counters %+v, sequential %+v", name, deg, m, seq)
				}
			}
		}
	}
	if probed == 0 || filtered == 0 {
		t.Fatalf("selections probed %d candidates and filter-scanned %d cells; the cases must exercise both", probed, filtered)
	}
}

// TestKernelRejectsCellOutsideBounds feeds the scan a stored cell whose
// offset is inside the chunk's capacity but past the clipped extent of a
// partial edge chunk. Nothing on the read path validated that before the
// kernel; it used to index a dimension table out of range and panic.
func TestKernelRejectsCellOutsideBounds(t *testing.T) {
	// 6x6, full, in 4x4 chunks: chunk 3 covers rows and columns 4..7, of
	// which 4 and 5 exist; offset 2 is row 4, column 6.
	fx := buildFixture(t, 5, []int{6, 6}, [][]int{{2}, {2}}, 1, []int{4, 4})
	arr := fx.arr.Clone()
	arr.Store().SetOverlay(map[int][]chunk.OverlayCell{3: {{Offset: 2, Value: 7}}})
	const want = "chunk 3: offset 2 outside array bounds"

	spec := GroupByAttrs(2, 0)
	for _, deg := range []int{1, 2} {
		_, _, err := ArrayConsolidate(bg, arr, ScanSpec{Group: spec, Workers: deg})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("degree %d: scan error = %v, want %q", deg, err, want)
		}
	}
	// A selection meets the same cell where it filter-scans the chunk
	// (four candidates against five cells here).
	sels := []Selection{{Dim: 0, Level: 0, Values: []string{"V0_0_0", "V0_0_1"}}}
	if _, _, err := ArrayConsolidate(bg, arr, ScanSpec{Selections: sels, Group: spec}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("select error = %v, want %q", err, want)
	}
	// An offset past the chunk capacity cannot come out of a decoder, but
	// the kernel must not trust that either.
	arr.Store().SetOverlay(map[int][]chunk.OverlayCell{0: {{Offset: 16, Value: 7}}})
	if _, _, err := ArrayConsolidate(bg, arr, ScanSpec{Group: spec}); err == nil || !strings.Contains(err.Error(), "chunk 0: offset 16 outside") {
		t.Fatalf("scan error = %v, want offset 16 of chunk 0 rejected", err)
	}
}

// scanFixture is a quarter of the paper's Data Set 1 — the same
// 20x20x20x10 chunks at 10 % density, 40x40x40x25 instead of x100 — with
// ten attribute values per dimension, so grouping all four gives the
// 10 000-group cube of the benchmark's wide statement.
func scanFixture(tb testing.TB) *fixture {
	return buildFixture(tb, 77, []int{40, 40, 40, 25},
		[][]int{{10}, {10}, {10}, {10}}, 0.1, []int{20, 20, 20, 10})
}

// TestPairsFoldLikeCells: on scanFixture, whose chunk-offset chunks span
// pages so pairs straddle page boundaries, the scan that folds pairs in
// place builds the cube the decoded route builds.
func TestPairsFoldLikeCells(t *testing.T) {
	fx := scanFixture(t)
	for _, spec := range []GroupSpec{{{Target: GroupByLevel}, {}, {}, {}}, GroupByAttrs(4, 0)} {
		got, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
		if err != nil {
			t.Fatal(err)
		}
		gm, err := newArrayGroupMapper(fx.arr, spec)
		if err != nil {
			t.Fatal(err)
		}
		k := newChunkKernel(fx.arr.Geometry(), gm, nil, nil)
		store := fx.arr.Store().Clone()
		for cn := 0; cn < fx.arr.Geometry().NumChunks(); cn++ {
			cells, err := store.ReadChunk(cn)
			if err == nil {
				err = k.consolidate(cn, cells)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := got.SortedRows(), gm.result.SortedRows(); !RowsEqual(got, want) {
			t.Fatalf("%v: pairs fold != cells fold: %s", spec, DiffRows(got, want))
		}
	}
}

// TestReloadedPagesAreRechecked: a chunk page skips its order check only
// while its frame holds the bytes that passed it. A page that goes bad on
// disk after a warm walk stamped its frame is checked again once the pool
// reloads it, so the scan, the selection fold and Get all fail on it
// rather than fold it. DropAll empties the pool the same way both times,
// so each page reloads into the frame it was stamped in: only the stamp's
// clearing on load makes the check run again.
func TestReloadedPagesAreRechecked(t *testing.T) {
	fx := scanFixture(t)
	store := fx.arr.Store()
	g := store.Geometry()
	if name := store.ChunkCodecName(0); name != chunk.CodecOffset {
		t.Fatalf("chunk 0 is %s", name)
	}
	cells, err := store.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := chunk.OffsetCodec{}.Encode(cells, g.ChunkCapacity())
	if err != nil || len(enc) < 2*storage.PageSize {
		t.Fatalf("chunk 0 encodes to %d bytes (%v), want two pages or more", len(enc), err)
	}

	group := GroupSpec{{Target: GroupByLevel}, {}, {}, {}}
	reads := []struct {
		name string
		read func() error
	}{
		{"scan", func() error { return runArray(fx, ScanSpec{Group: group}) }},
		{"selection", func() error {
			return runArray(fx, ScanSpec{Group: group, Selections: []Selection{
				{0, 0, []string{"V0_0_0", "V0_0_1", "V0_0_2"}}, {3, 0, []string{"V3_0_0", "V3_0_1"}}}})
		}},
		{"get", func() error { _, _, err := store.Get(make([]int, g.NumDims())); return err }},
	}
	if err := fx.bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := fx.bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if err := r.read(); err != nil {
			t.Fatalf("warm %s: %v", r.name, err)
		}
	}

	// Chunk 0's second page, on disk: its whole pair 100 repeats pair
	// 99's offset. Its first whole pair starts at byte 4.
	disk, page := fx.bp.Disk(), make([]byte, storage.PageSize)
	id := storage.InvalidPageID
	for i := uint64(0); i < disk.NumPages() && !id.Valid(); i++ {
		if err := disk.ReadPage(storage.PageID(i), page); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(page, enc[storage.PageSize:2*storage.PageSize]) {
			id = storage.PageID(i)
		}
	}
	if !id.Valid() {
		t.Fatal("chunk 0's second page is not on disk")
	}
	at := 4 + 100*12
	copy(page[at:at+4], page[at-12:])
	if err := disk.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if err := fx.bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if err := r.read(); err == nil || !strings.Contains(err.Error(), "not strictly sorted") {
			t.Errorf("%s after the reload: err = %v, want the order check's error", r.name, err)
		}
	}
}

// runArray runs scan on the array engine and drops the result.
func runArray(fx *fixture, scan ScanSpec) error {
	res, _, err := ArrayConsolidate(bg, fx.arr, scan)
	if err == nil {
		res.Release()
	}
	return err
}

// BenchmarkArrayScanKernel times the warm sequential Query 1 — page
// read, decode and the chunk kernel — per valid cell, for a narrow
// (one grouped dimension) and a wide (all four, 10 000 groups) cube.
func BenchmarkArrayScanKernel(b *testing.B) {
	fx := scanFixture(b)
	narrow := GroupSpec{{Target: GroupByLevel}, {}, {}, {}}
	for _, c := range []struct {
		name string
		spec GroupSpec
	}{{"narrow", narrow}, {"wide", GroupByAttrs(4, 0)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cells int64
			for i := 0; i < b.N; i++ {
				res, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: c.spec})
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
				cells += m.CellsScanned
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		})
	}
}

// foldFixture is scanFixture with each attribute's values laid out in
// key order — members sharing a value are neighbours, as §5.1 loads
// them — so a selection reaches few chunks, and with upserts pending in
// the 8 chunks of the newest last-dimension slab: the state the htap
// workload's writer leaves. The fact file is stale wherever they landed.
func foldFixture(tb testing.TB) (*fixture, *OverlayFold) {
	dimSizes, cards := []int{40, 40, 40, 25}, [][]int{{10}, {10}, {10}, {10}}
	fx := newFixtureDimsFunc(tb, dimSizes, cards, func(i, li int, k int64) int {
		return int(k) * cards[i][li] / dimSizes[i]
	})
	rng := rand.New(rand.NewSource(77))
	fx.load(tb, randomFacts(rng, dimSizes, 0.1), []int{20, 20, 20, 10})

	g := fx.arr.Geometry()
	ov := map[int][]chunk.OverlayCell{}
	seen := map[[2]int]bool{}
	for i := 0; i < 4000; i++ {
		cn, off := g.Locate([]int{rng.Intn(40), rng.Intn(40), rng.Intn(40), 20 + rng.Intn(5)})
		if !seen[[2]int{cn, off}] {
			seen[[2]int{cn, off}] = true
			ov[cn] = append(ov[cn], chunk.OverlayCell{Offset: uint32(off), Value: rng.Int63n(1000)})
		}
	}
	fold := pendingOverlay(fx, ov)
	if len(fold.Chunks) != 8 {
		tb.Fatalf("the deltas touched chunks %v, want the 8 of the last slab", fold.Chunks)
	}
	return fx, fold
}

// foldCases select, over foldFixture: one chunk of the touched slab; a
// block of six chunks, two of them touched; one chunk of an untouched
// slab; and everything.
var foldCases = []struct {
	name   string
	sels   []Selection
	folded int64 // touched chunks the selection reaches
}{
	{"point", []Selection{{0, 0, []string{"V0_0_0"}}, {1, 0, []string{"V1_0_0"}}, {2, 0, []string{"V2_0_0"}}, {3, 0, []string{"V3_0_9"}}}, 1},
	{"mid", []Selection{{0, 0, []string{"V0_0_0"}}, {1, 0, []string{"V1_0_0"}}}, 2},
	{"disjoint", []Selection{{0, 0, []string{"V0_0_0"}}, {3, 0, []string{"V3_0_0"}}}, 0},
	{"noselection", nil, 8},
}

// TestFoldReadsOnlyReachableChunks pins what pending deltas cost a
// relational run: it reads the touched chunks its selection can reach
// and no others, and answers as the array engine does.
func TestFoldReadsOnlyReachableChunks(t *testing.T) {
	fx, fold := foldFixture(t)
	spec := GroupSpec{{Target: GroupByLevel}, {}, {}, {Target: GroupByKey}}
	for _, c := range foldCases {
		scan := ScanSpec{Selections: c.sels, Group: spec, Overlay: fold}
		want, _, err := fx.run(bg, "array", scan)
		if err != nil {
			t.Fatalf("%s array: %v", c.name, err)
		}
		for _, eng := range []string{"starjoin", "bitmap"} {
			res, m, err := fx.run(bg, eng, scan)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, eng, err)
			}
			if got, want := res.SortedRows(), want.SortedRows(); !RowsEqual(got, want) {
				t.Errorf("%s %s != array engine: %s", c.name, eng, DiffRows(got, want))
			}
			if m.ChunksRead != c.folded || m.OverlayTouched != 8 {
				t.Errorf("%s %s folded %d of %d touched chunks, want %d of 8", c.name, eng, m.ChunksRead, m.OverlayTouched, c.folded)
			}
		}
	}
}

// BenchmarkOverlayFold times a warm bitmap-plan query with the newest
// slab's deltas pending, and counts the array cells the fold visits for
// it (probes plus filter-scanned cells).
func BenchmarkOverlayFold(b *testing.B) {
	fx, fold := foldFixture(b)
	spec := GroupSpec{{Target: GroupByLevel}, {}, {}, {}}
	for _, c := range foldCases {
		b.Run(c.name, func(b *testing.B) {
			var cells int64
			for i := 0; i < b.N; i++ {
				res, m, err := fx.run(bg, "bitmap", ScanSpec{Selections: c.sels, Group: spec, Overlay: fold})
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
				cells += m.Probes + m.CellsScanned
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/query")
			b.ReportMetric(float64(cells)/float64(b.N), "cells/query")
		})
	}
}
