package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/bitmap"
	"repro/internal/catalog"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// bg is the context of every test run that does not cancel.
var bg = context.Background()

// sliceFacts adapts in-memory facts to array.FactSource.
type sliceFacts struct {
	keys     [][]int64
	measures []int64
	pos      int
}

func (s *sliceFacts) Next() ([]int64, int64, bool, error) {
	if s.pos >= len(s.keys) {
		return nil, 0, false, nil
	}
	k, m := s.keys[s.pos], s.measures[s.pos]
	s.pos++
	return k, m, true, nil
}

// fixture is a complete miniature star database: dimension tables, fact
// file, OLAP array, and bitmap indexes over the same synthetic data.
type fixture struct {
	bp    *storage.BufferPool
	dims  []*catalog.DimensionTable
	ff    *factfile.File
	arr   *array.Array
	bmaps MemBitmapSource
}

// buildFixture generates dimensions of the given sizes, each with one
// hierarchy attribute per entry of attrCards[i] (attribute value v is
// uniform over that cardinality), and a fact table holding each cube
// cell with probability density.
func buildFixture(t testing.TB, seed int64, dimSizes []int, attrCards [][]int,
	density float64, chunkShape []int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := newFixtureDims(t, rng, dimSizes, attrCards)
	facts := randomFacts(rng, dimSizes, density)
	fx.load(t, facts, chunkShape)
	return fx
}

// newFixtureDims starts a fixture: the buffer pool and the dimension
// tables, attribute values drawn from rng.
func newFixtureDims(t testing.TB, rng *rand.Rand, dimSizes []int, attrCards [][]int) *fixture {
	t.Helper()
	return newFixtureDimsFunc(t, dimSizes, attrCards, func(i, li int, _ int64) int { return rng.Intn(attrCards[i][li]) })
}

// newFixtureDimsFunc is newFixtureDims with value choosing the attribute
// value (its number within the level) of key k at level li of
// dimension i.
func newFixtureDimsFunc(t testing.TB, dimSizes []int, attrCards [][]int, value func(i, li int, k int64) int) *fixture {
	t.Helper()
	fx := &fixture{bp: storage.NewBufferPool(storage.NewMemDiskManager(), 8192)}
	for i, size := range dimSizes {
		var attrs []string
		for li := range attrCards[i] {
			attrs = append(attrs, fmt.Sprintf("h%d%d", i, li+1))
		}
		dt, err := catalog.CreateDimensionTable(fx.bp, catalog.DimensionSchema{
			Name: fmt.Sprintf("dim%d", i), Key: fmt.Sprintf("d%d", i), Attrs: attrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < int64(size); k++ {
			vals := make([]string, len(attrs))
			for li := range vals {
				vals[li] = fmt.Sprintf("V%d_%d_%d", i, li, value(i, li, k))
			}
			if err := dt.Insert(k, vals); err != nil {
				t.Fatal(err)
			}
		}
		fx.dims = append(fx.dims, dt)
	}
	return fx
}

// randomFacts holds each cube cell with probability density, in
// row-major key order.
func randomFacts(rng *rand.Rand, dimSizes []int, density float64) *sliceFacts {
	facts := &sliceFacts{}
	coords := make([]int64, len(dimSizes))
	var walk func(d int)
	walk = func(d int) {
		if d == len(dimSizes) {
			if rng.Float64() < density {
				k := append([]int64(nil), coords...)
				facts.keys = append(facts.keys, k)
				facts.measures = append(facts.measures, rng.Int63n(1000)-200)
			}
			return
		}
		for coords[d] = 0; coords[d] < int64(dimSizes[d]); coords[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
	return facts
}

// newFactFile writes facts over n dimensions to a fresh fact file.
func newFactFile(t testing.TB, bp *storage.BufferPool, n int, facts *sliceFacts) *factfile.File {
	t.Helper()
	ff, err := factfile.Create(bp, catalog.FactRecordSize(n), 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, catalog.FactRecordSize(n))
	for i := range facts.keys {
		if err := catalog.EncodeFact(rec, facts.keys[i], facts.measures[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := ff.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return ff
}

// load finishes a fixture: the fact file, the OLAP array and the bitmap
// indexes over facts.
func (fx *fixture) load(t testing.TB, facts *sliceFacts, chunkShape []int) {
	t.Helper()
	fx.ff = newFactFile(t, fx.bp, len(fx.dims), facts)

	arr, err := array.Build(fx.bp, fx.dims, facts, array.BuildConfig{ChunkShape: chunkShape})
	if err != nil {
		t.Fatal(err)
	}
	fx.arr = arr

	bm, err := BuildBitmapIndexes(fx.ff, fx.dims)
	if err != nil {
		t.Fatal(err)
	}
	fx.bmaps = MemBitmapSource(bm)
}

func defaultFixture(t testing.TB, seed int64) *fixture {
	return buildFixture(t, seed,
		[]int{8, 6, 10},
		[][]int{{3, 2}, {2}, {4, 2}},
		0.3,
		[]int{3, 2, 4})
}

// engines names the three run functions, for tests that drive every
// engine through one table of ScanSpecs.
var engines = []string{"array", "starjoin", "bitmap"}

// run hands s to the named engine over the fixture's data. Pending
// deltas ride in s: the array engine reads them under s.View.
func (fx *fixture) run(ctx context.Context, engine string, s ScanSpec) (*Result, Metrics, error) {
	switch engine {
	case "array":
		return ArrayConsolidate(ctx, fx.arr, s)
	case "starjoin":
		return StarJoinConsolidate(ctx, fx.ff, fx.dims, s)
	case "bitmap":
		return BitmapSelectConsolidate(ctx, fx.ff, fx.dims, fx.bmaps, s)
	}
	panic("unknown engine " + engine)
}

func checkAllPlansEqual(t *testing.T, fx *fixture, sels []Selection, spec GroupSpec) {
	t.Helper()
	want, err := ReferenceConsolidate(fx.ff, fx.dims, sels, spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, eng := range engines {
		res, _, err := fx.run(bg, eng, ScanSpec{Selections: sels, Group: spec})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if got := res.SortedRows(); !RowsEqual(got, want) {
			t.Fatalf("%s != reference: %s", eng, DiffRows(got, want))
		}
	}
}

func TestConsolidationGroupByLevel(t *testing.T) {
	fx := defaultFixture(t, 1)
	checkAllPlansEqual(t, fx, nil, GroupByAttrs(3, 0))
}

func TestConsolidationMixedSpec(t *testing.T) {
	fx := defaultFixture(t, 2)
	spec := GroupSpec{
		{Target: GroupByLevel, Level: 1},
		{Target: Collapse},
		{Target: GroupByKey},
	}
	checkAllPlansEqual(t, fx, nil, spec)
}

func TestConsolidationFullCollapse(t *testing.T) {
	fx := defaultFixture(t, 3)
	spec := GroupSpec{{Target: Collapse}, {Target: Collapse}, {Target: Collapse}}
	checkAllPlansEqual(t, fx, nil, spec)

	// The single global row must equal the fact sum.
	res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || len(rows[0].Groups) != 0 {
		t.Fatalf("full collapse rows = %+v", rows)
	}
	if rows[0].Count != fx.arr.NumValidCells() {
		t.Fatalf("collapse count = %d, want %d", rows[0].Count, fx.arr.NumValidCells())
	}
}

func TestSelectionSingleValue(t *testing.T) {
	fx := defaultFixture(t, 4)
	sels := []Selection{{Dim: 0, Level: 1, Values: []string{"V0_1_0"}}}
	checkAllPlansEqual(t, fx, sels, GroupByAttrs(3, 0))
}

func TestSelectionMultiDimension(t *testing.T) {
	fx := defaultFixture(t, 5)
	sels := []Selection{
		{Dim: 0, Level: 0, Values: []string{"V0_0_0", "V0_0_1"}},
		{Dim: 1, Level: 0, Values: []string{"V1_0_1"}},
		{Dim: 2, Level: 1, Values: []string{"V2_1_0"}},
	}
	checkAllPlansEqual(t, fx, sels, GroupByAttrs(3, 0))
}

func TestSelectionConjunctionOnSameDim(t *testing.T) {
	fx := defaultFixture(t, 6)
	sels := []Selection{
		{Dim: 0, Level: 0, Values: []string{"V0_0_0"}},
		{Dim: 0, Level: 1, Values: []string{"V0_1_1"}},
	}
	checkAllPlansEqual(t, fx, sels, GroupByAttrs(3, 0))
}

func TestSelectionNoMatches(t *testing.T) {
	fx := defaultFixture(t, 7)
	sels := []Selection{{Dim: 1, Level: 0, Values: []string{"NO_SUCH_VALUE"}}}
	want, err := ReferenceConsolidate(fx.ff, fx.dims, sels, GroupByAttrs(3, 0))
	if err != nil || len(want) != 0 {
		t.Fatalf("reference = (%v, %v)", want, err)
	}
	checkAllPlansEqual(t, fx, sels, GroupByAttrs(3, 0))
}

func TestSelectionWithCollapseGroup(t *testing.T) {
	fx := defaultFixture(t, 8)
	sels := []Selection{{Dim: 2, Level: 0, Values: []string{"V2_0_2"}}}
	spec := GroupSpec{{Target: Collapse}, {Target: GroupByLevel, Level: 0}, {Target: Collapse}}
	checkAllPlansEqual(t, fx, sels, spec)
}

func TestArrayConsolidateMetrics(t *testing.T) {
	fx := defaultFixture(t, 9)
	_, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupByAttrs(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if m.CellsScanned != fx.arr.NumValidCells() {
		t.Fatalf("CellsScanned = %d, want %d", m.CellsScanned, fx.arr.NumValidCells())
	}
	if m.ChunksRead == 0 || m.ChunksRead > int64(fx.arr.Geometry().NumChunks()) {
		t.Fatalf("ChunksRead = %d", m.ChunksRead)
	}
}

func TestArraySelectChunkSkipping(t *testing.T) {
	// A selective point predicate must read at most the chunks along one
	// slab, not the whole array.
	fx := buildFixture(t, 10, []int{20, 20}, [][]int{{20}, {20}}, 0.5, []int{4, 4})
	// Pick an attribute value that exists.
	val := fx.arr.Dims()[0].Levels[0].Dict[0]
	sels := []Selection{{Dim: 0, Level: 0, Values: []string{val}}}
	_, m, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: sels, Group: GroupSpec{{Target: Collapse}, {Target: Collapse}}})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(fx.arr.Geometry().NumChunks())
	if m.ChunksRead >= total {
		t.Fatalf("selection read all %d chunks", total)
	}
	if m.Probes+m.CellsScanned == 0 {
		t.Fatal("selection neither probed nor filter-scanned a cell")
	}
	if m.ProbeHits > m.Probes {
		t.Fatal("more hits than probes")
	}
	checkAllPlansEqual(t, fx, sels, GroupSpec{{Target: Collapse}, {Target: Collapse}})
}

func TestBitmapSelectMetrics(t *testing.T) {
	fx := defaultFixture(t, 11)
	sels := []Selection{
		{Dim: 0, Level: 0, Values: []string{"V0_0_0"}},
		{Dim: 1, Level: 0, Values: []string{"V1_0_0"}},
	}
	res, m, err := BitmapSelectConsolidate(bg, fx.ff, fx.dims, fx.bmaps, ScanSpec{Selections: sels, Group: GroupByAttrs(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if m.BitmapsRead != 2 {
		t.Fatalf("BitmapsRead = %d, want 2", m.BitmapsRead)
	}
	var want int64
	for _, r := range res.Rows() {
		want += r.Count
	}
	if m.TuplesFetched != want {
		t.Fatalf("TuplesFetched = %d, want %d", m.TuplesFetched, want)
	}
	// The bitmap plan must fetch fewer tuples than a full scan visits.
	if m.TuplesFetched >= int64(fx.ff.NumTuples()) && fx.ff.NumTuples() > 0 {
		t.Fatalf("bitmap plan fetched every tuple (%d)", m.TuplesFetched)
	}
}

func TestSelectionSelectivity(t *testing.T) {
	fx := defaultFixture(t, 12)
	s, err := SelectionSelectivity(fx.arr, nil)
	if err != nil || s != 1 {
		t.Fatalf("empty selectivity = (%v, %v)", s, err)
	}
	val := fx.arr.Dims()[1].Levels[0].Dict[0]
	s, err = SelectionSelectivity(fx.arr, []Selection{{Dim: 1, Level: 0, Values: []string{val}}})
	if err != nil || s <= 0 || s >= 1 {
		t.Fatalf("selectivity = (%v, %v), want in (0,1)", s, err)
	}
}

func TestResultRowAggregates(t *testing.T) {
	fx := defaultFixture(t, 13)
	res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupByAttrs(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows() {
		if r.Count <= 0 {
			t.Fatalf("row with count %d", r.Count)
		}
		if r.Min > r.Max {
			t.Fatalf("min %d > max %d", r.Min, r.Max)
		}
		if r.Sum < r.Min*r.Count || r.Sum > r.Max*r.Count {
			t.Fatalf("sum %d outside [%d, %d]", r.Sum, r.Min*r.Count, r.Max*r.Count)
		}
		if r.Value(Sum) != r.Sum || r.Value(Count) != r.Count ||
			r.Value(Min) != r.Min || r.Value(Max) != r.Max {
			t.Fatal("Value dispatch wrong")
		}
		if got := r.Value(Avg); got != int64(math.Round(r.Avg())) {
			t.Fatalf("Value(Avg) = %d, Avg() = %v (want rounded, not truncated)", got, r.Avg())
		}
	}
	for _, a := range []AggFunc{Sum, Count, Min, Max, Avg, AggFunc(99)} {
		if a.String() == "" {
			t.Fatal("AggFunc.String empty")
		}
	}
}

func TestGroupSpecErrors(t *testing.T) {
	fx := defaultFixture(t, 14)
	if _, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: GroupSpec{{Target: GroupByKey}}}); err == nil {
		t.Fatal("short spec accepted")
	}
	bad := GroupSpec{{Target: GroupByLevel, Level: 9}, {Target: Collapse}, {Target: Collapse}}
	if _, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: bad}); err == nil {
		t.Fatal("bad level accepted by array plan")
	}
	if _, _, err := StarJoinConsolidate(bg, fx.ff, fx.dims, ScanSpec{Group: bad}); err == nil {
		t.Fatal("bad level accepted by star join")
	}
	badSel := []Selection{{Dim: 9, Level: 0, Values: []string{"x"}}}
	if _, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: badSel, Group: GroupByAttrs(3, 0)}); err == nil {
		t.Fatal("bad selection dim accepted by array plan")
	}
	if _, _, err := BitmapSelectConsolidate(bg, fx.ff, fx.dims, fx.bmaps, ScanSpec{Selections: badSel, Group: GroupByAttrs(3, 0)}); err == nil {
		t.Fatal("bad selection dim accepted by bitmap plan")
	}
	badSel2 := []Selection{{Dim: 0, Level: 9, Values: []string{"x"}}}
	if _, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: badSel2, Group: GroupByAttrs(3, 0)}); err == nil {
		t.Fatal("bad selection level accepted by array plan")
	}
	if _, _, err := BitmapSelectConsolidate(bg, fx.ff, fx.dims, fx.bmaps, ScanSpec{Selections: badSel2, Group: GroupByAttrs(3, 0)}); err == nil {
		t.Fatal("bad selection level accepted by bitmap plan")
	}
}

func TestMergeHelpers(t *testing.T) {
	if got := unionSorted([]int{1, 3, 5}, []int{2, 3, 6}); len(got) != 5 {
		t.Fatalf("unionSorted = %v", got)
	}
	if got := intersectSorted([]int{1, 3, 5}, []int{2, 3, 5, 6}); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("intersectSorted = %v", got)
	}
	if got := unionSorted(nil, []int{1}); len(got) != 1 {
		t.Fatalf("unionSorted(nil, x) = %v", got)
	}
	if got := intersectSorted(nil, []int{1}); len(got) != 0 {
		t.Fatalf("intersectSorted(nil, x) = %v", got)
	}
}

// Property: on random schemas, data, specs, and selections, all five
// plans agree with the reference.
func TestQuickAllPlansAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := rng.Intn(3) + 2
		dimSizes := make([]int, nd)
		attrCards := make([][]int, nd)
		chunkShape := make([]int, nd)
		for i := range dimSizes {
			dimSizes[i] = rng.Intn(8) + 2
			nl := rng.Intn(2) + 1
			attrCards[i] = make([]int, nl)
			for li := range attrCards[i] {
				attrCards[i][li] = rng.Intn(4) + 1
			}
			chunkShape[i] = rng.Intn(dimSizes[i]) + 1
		}
		fx := buildFixture(t, seed+1000, dimSizes, attrCards, 0.4, chunkShape)

		spec := make(GroupSpec, nd)
		for i := range spec {
			switch rng.Intn(3) {
			case 0:
				spec[i] = DimGroup{Target: Collapse}
			case 1:
				spec[i] = DimGroup{Target: GroupByKey}
			default:
				spec[i] = DimGroup{Target: GroupByLevel, Level: rng.Intn(len(attrCards[i]))}
			}
		}
		var sels []Selection
		for i := 0; i < nd; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			level := rng.Intn(len(attrCards[i]))
			nv := rng.Intn(2) + 1
			vals := make([]string, nv)
			for v := range vals {
				vals[v] = fmt.Sprintf("V%d_%d_%d", i, level, rng.Intn(attrCards[i][level]+1))
			}
			sels = append(sels, Selection{Dim: i, Level: level, Values: vals})
		}

		want, err := ReferenceConsolidate(fx.ff, fx.dims, sels, spec)
		if err != nil {
			return false
		}
		for _, eng := range engines {
			res, _, err := fx.run(bg, eng, ScanSpec{Selections: sels, Group: spec})
			if err != nil || !RowsEqual(res.SortedRows(), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLOBBitmapSource checks the persistent bitmap index path used by the
// executor.
func TestLOBBitmapSource(t *testing.T) {
	fx := defaultFixture(t, 15)
	lob := storage.NewLOBStore(fx.bp)
	refs := map[string]uint64{}
	for key, ix := range fx.bmaps {
		ref, _, err := ix.Save(lob)
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = uint64(ref.First)
	}
	src := &LOBBitmapSource{Lob: lob, Refs: refs}
	bm := bitmap.New(fx.ff.NumTuples())
	ok, err := src.OrBitmap("dim0", "h01", "V0_0_0", bm)
	if err != nil || !ok || bm.Count() == 0 {
		t.Fatalf("OrBitmap = (%v, %v, %v)", bm, ok, err)
	}
	// The per-value bitmap must equal the in-memory one.
	if wantBM, _ := fx.bmaps["dim0.h01"].Get("V0_0_0"); !bm.Equal(wantBM) {
		t.Fatal("seekable bitmap differs from in-memory bitmap")
	}
	if ok, err := src.OrBitmap("dim0", "h01", "NO_SUCH", bm); err != nil || ok {
		t.Fatalf("OrBitmap absent value = (%v, %v)", ok, err)
	}
	if _, err := src.OrBitmap("dim0", "nope", "x", bm); err == nil {
		t.Fatal("OrBitmap of unknown attr succeeded")
	}

	sels := []Selection{{Dim: 0, Level: 0, Values: []string{"V0_0_0"}}}
	want, err := ReferenceConsolidate(fx.ff, fx.dims, sels, GroupByAttrs(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := BitmapSelectConsolidate(bg, fx.ff, fx.dims, src, ScanSpec{Selections: sels, Group: GroupByAttrs(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SortedRows(); !RowsEqual(got, want) {
		t.Fatalf("persistent bitmap plan != reference: %s", DiffRows(got, want))
	}
}
