package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// The cold ⊕ hot differential runs over a 16x8x12 cube in 4x4x3 chunks
// (32 chunks, four slabs of 8 along t) whose attributes are laid out in
// key order, so a selection's reach is a block of chunks: ga = a/4 and
// gb = b/4 name chunk coordinates, q = t/3 names a slab.
const (
	splitDimA, splitDimB, splitDimT = 16, 8, 12
	splitHotT                       = 9 // the newest slab is t in [9, 12)
)

const splitAggs = "select sum(volume), count(volume), min(volume), max(volume), avg(volume), ga "

// splitStatements are the shapes a cut distinguishes, each with the
// model's filter: everything; a block of 16 chunks, 4 in the hot slab; 4
// chunks, 1 hot; one chunk inside the hot slab; one chunk outside it.
var splitStatements = []struct {
	name, sql string
	keep      func(a, b, t int64) bool
}{
	{"noselection", splitAggs + "from fact, a group by ga",
		func(a, b, t int64) bool { return true }},
	{"broad", splitAggs + "from fact, a, b where b.gb = 'gb0' group by ga",
		func(a, b, t int64) bool { return b/4 == 0 }},
	{"mid", splitAggs + "from fact, a, b where a.ga = 'ga1' and b.gb = 'gb0' group by ga",
		func(a, b, t int64) bool { return a/4 == 1 && b/4 == 0 }},
	{"point-in-slab", splitAggs + "from fact, a, b, t where a.ga = 'ga1' and b.gb = 'gb0' and t.q = 'q3' group by ga",
		func(a, b, t int64) bool { return a/4 == 1 && b/4 == 0 && t/3 == 3 }},
	{"point-outside", splitAggs + "from fact, a, b, t where a.ga = 'ga1' and b.gb = 'gb0' and t.q = 'q0' group by ga",
		func(a, b, t int64) bool { return a/4 == 1 && b/4 == 0 && t/3 == 0 }},
}

// splitModel is the cube as a map, the reference every engine answer is
// held to: it never consults an engine.
type splitModel map[[3]int64]int64

func (m splitModel) rows(keep func(a, b, t int64) bool) []Row {
	groups := map[string]*Row{}
	for k, v := range m {
		if !keep(k[0], k[1], k[2]) {
			continue
		}
		label := fmt.Sprintf("ga%d", k[0]/4)
		r := groups[label]
		if r == nil {
			r = &Row{Groups: []string{label}, Min: v, Max: v}
			groups[label] = r
		}
		r.Sum += v
		r.Count++
		r.Min, r.Max = min(r.Min, v), max(r.Max, v)
	}
	return sortedRows(groups)
}

func sortedRows(groups map[string]*Row) []Row {
	out := make([]Row, 0, len(groups))
	for _, r := range groups {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Groups[0] < out[j].Groups[0] })
	return out
}

// openSplitDB loads the cube at 1/3 density, leaving empty the cells
// skip names (nil = none).
func openSplitDB(t *testing.T, skip func(k [3]int64) bool) (*DB, splitModel) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = db.CreateStarSchema(&StarSchema{
		Fact: FactSchema{Name: "fact", Dims: []string{"a", "b", "t"}, Measure: "volume"},
		Dimensions: []DimensionSchema{
			{Name: "a", Key: "aid", Attrs: []string{"ga"}},
			{Name: "b", Key: "bid", Attrs: []string{"gb"}},
			{Name: "t", Key: "tid", Attrs: []string{"q"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name, attr string
		size, per  int64
	}{{"a", "ga", splitDimA, 4}, {"b", "gb", splitDimB, 4}, {"t", "q", splitDimT, 3}} {
		var rows []DimensionRow
		for k := int64(0); k < d.size; k++ {
			rows = append(rows, DimensionRow{Key: k, Attrs: []string{fmt.Sprintf("%s%d", d.attr, k/d.per)}})
		}
		if err := db.LoadDimension(d.name, rows); err != nil {
			t.Fatal(err)
		}
	}
	model := splitModel{}
	var facts []FactTuple
	rng := rand.New(rand.NewSource(19))
	for a := int64(0); a < splitDimA; a++ {
		for b := int64(0); b < splitDimB; b++ {
			for tm := int64(0); tm < splitDimT; tm++ {
				if rng.Intn(3) == 0 && (skip == nil || !skip([3]int64{a, b, tm})) {
					v := 100 + rng.Int63n(900)
					model[[3]int64{a, b, tm}] = v
					facts = append(facts, FactTuple{Keys: []int64{a, b, tm}, Measure: v})
				}
			}
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildArray(ArrayConfig{ChunkShape: []int{4, 4, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildBitmapIndexes(); err != nil {
		t.Fatal(err)
	}
	db.EnableQueryCache(16 << 20)
	return db, model
}

// TestColdHotDifferential holds the array plan's cold ⊕ hot refresh to
// the reference through everything that moves under it: batches into the
// hot slab that update, insert and delete — among the deletes the
// current minimum and maximum of a group, which only the never-touched
// chunks can then supply — the first touch of a new chunk (the cold cube
// in the cache now contains a chunk with deltas: it must be rebuilt, not
// combined), and a compaction. After every step each statement runs
// through a cached session and a CACHE off one, at workers {1,4}; rows
// must be bit-identical between the two and to the model.
func TestColdHotDifferential(t *testing.T) {
	db, model := openSplitDB(t, nil)
	defer db.Close()
	cached, off := db.Session(), db.Session()
	off.SetCache(false)
	bg := context.Background()
	rng := rand.New(rand.NewSource(23))
	counter := func(name string) int64 { return db.MetricsSnapshot().Counter(name) }

	checkAll := func(step string) {
		t.Helper()
		for _, st := range splitStatements {
			want := model.rows(st.keep)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s: %s workers=%d", step, st.name, workers)
				cached.SetParallel(workers)
				off.SetParallel(workers)
				got, err := cached.QueryOnContext(bg, st.sql, ArrayEngine)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				plain, err := off.QueryOnContext(bg, st.sql, ArrayEngine)
				if err != nil {
					t.Fatalf("%s CACHE off: %v", name, err)
				}
				if plain.Cached || plain.Metrics.ColdCube != "" {
					t.Fatalf("%s: the CACHE off session was served from the cache (cached=%v cold=%q)",
						name, plain.Cached, plain.Metrics.ColdCube)
				}
				if !core.RowsEqual(got.Rows, plain.Rows) {
					t.Fatalf("%s: cached session != CACHE off: %s", name, core.DiffRows(got.Rows, plain.Rows))
				}
				again, err := cached.QueryOnContext(bg, st.sql, ArrayEngine)
				if err != nil || !again.Cached || !core.RowsEqual(again.Rows, got.Rows) {
					t.Fatalf("%s: repeat cached=%v err=%v", name, again != nil && again.Cached, err)
				}
				if !core.RowsEqual(got.Rows, want) {
					t.Fatalf("%s != model: %s", name, core.DiffRows(got.Rows, want))
				}
			}
			// The relational plans read the same view of the ingest.
			for _, eng := range []Engine{StarJoinEngine, BitmapEngine} {
				got, err := cached.QueryOn(st.sql, eng)
				if err != nil {
					t.Fatalf("%s: %s %v: %v", step, st.name, eng, err)
				}
				if !core.RowsEqual(got.Rows, want) {
					t.Fatalf("%s: %s %v != model: %s", step, st.name, eng, core.DiffRows(got.Rows, want))
				}
			}
		}
	}

	// extremes of the batch before: cells holding their group's current
	// minimum and maximum, to be deleted by the next batch.
	var extremes [][3]int64
	batch := func(r int) {
		t.Helper()
		var cells []IngestCell
		set := func(k [3]int64, v int64) {
			model[k] = v
			cells = append(cells, IngestCell{Keys: k[:], Value: v})
		}
		del := func(k [3]int64) {
			delete(model, k)
			cells = append(cells, IngestCell{Keys: k[:], Delete: true})
		}
		for _, k := range extremes {
			lo, hi := model[k], model[k]
			for o, v := range model {
				if o[0]/4 == k[0]/4 {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			if v := model[k]; v != lo && v != hi {
				t.Fatalf("batch %d: cell %v = %d is no longer an extreme of its group [%d, %d]", r, k, v, lo, hi)
			}
			del(k)
		}
		g := int64(r % 4) // this batch's group: a in [4g, 4g+4)
		lowest := [3]int64{4*g + int64(r)%4, int64(r) % splitDimB, splitHotT + int64(r)%3}
		highest := [3]int64{4*g + int64(r+1)%4, int64(r+3) % splitDimB, splitHotT + int64(r+1)%3}
		set(lowest, -1000-int64(r))
		set(highest, 100000+int64(r))
		extremes = [][3]int64{lowest, highest}
		for i := 0; i < 12; i++ {
			k := [3]int64{rng.Int63n(splitDimA), rng.Int63n(splitDimB), splitHotT + rng.Int63n(3)}
			if k == lowest || k == highest {
				continue
			}
			if _, ok := model[k]; ok && i%3 == 0 {
				del(k) // a loaded or ingested cell goes
			} else {
				set(k, 100+rng.Int63n(900)) // update or insert
			}
		}
		if err := db.InsertCells(cells); err != nil {
			t.Fatal(err)
		}
	}

	checkAll("at rest")
	if n := counter("cache_cold_misses_total") + counter("cache_cold_hits_total"); n != 0 {
		t.Fatalf("%d cold-cube probes with nothing ever ingested", n)
	}
	for r := 0; r < 4; r++ {
		batch(r)
		checkAll(fmt.Sprintf("batch %d", r))
	}
	if st := db.DeltaStats(); st.TouchedChunks != 8 {
		t.Fatalf("the batches touched %d chunks, want the slab's 8", st.TouchedChunks)
	}
	// 3 statements have both sides (the two points are all-hot and
	// all-cold) x 2 degrees: each built its cold cube
	// once, after the first batch, and found it after the other three.
	if built, hit := counter("cache_cold_misses_total"), counter("cache_cold_hits_total"); built == 0 || hit < 3*built/2 {
		t.Fatalf("cold cubes: %d built, %d found; want every later batch to find the first one's", built, hit)
	}

	// First touch of a chunk: the cached cold cubes cover it.
	q1 := splitStatements[0].sql
	entries, built := db.Stats().ResultCache.Entries, counter("cache_cold_misses_total")
	first := [3]int64{0, 0, 0}
	model[first] = 7777
	if err := db.InsertCells([]IngestCell{{Keys: first[:], Value: 7777}}); err != nil {
		t.Fatal(err)
	}
	cached.SetParallel(1)
	res, err := cached.QueryOnContext(bg, q1, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Metrics.ColdCube != "built" || res.Metrics.HotChunks != 9 {
		t.Fatalf("after a first touch: cached=%v cold=%q hot=%d, want a rebuilt cold cube over 9 hot chunks",
			res.Cached, res.Metrics.ColdCube, res.Metrics.HotChunks)
	}
	if want := model.rows(splitStatements[0].keep); !core.RowsEqual(res.Rows, want) {
		t.Fatalf("after a first touch != model: %s", core.DiffRows(res.Rows, want))
	}
	if n := counter("cache_cold_misses_total") - built; n != 1 {
		t.Fatalf("the first touch cost %d cold builds, want 1", n)
	}
	if n := db.Stats().ResultCache.Entries; n != entries {
		t.Fatalf("the rebuilt statement holds %d more cache entries: its old rows or its old cold cube stayed", n-entries)
	}
	checkAll("first touch")

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAll("compacted")
	batch(4)
	// Compaction rewrote touched chunks only: the cold cube still stands.
	cached.SetParallel(1)
	if res, err = cached.QueryOnContext(bg, q1, ArrayEngine); err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Metrics.ColdCube != "hit" {
		t.Fatalf("first refresh after a compaction: cached=%v cold=%q, want the cold cube found", res.Cached, res.Metrics.ColdCube)
	}
	checkAll("batch after compaction")
}

// TestColdHotNeverMixed reads while a writer ingests, and checks every
// reply on its own: batch r sets, in one atomic batch, every cell ever
// written plus — every other batch — one more, all to the value r, so a
// reply's count says which two batches it can reflect and its sum must
// agree with one of them. Odd batches keep the hot list (the cold cube is
// found), even ones touch a chunk for the first time (it must be
// rebuilt): first the newest slab's 8, then chunks of the next slab. A
// cold cube combined with a fold that does not match it — a chunk's old
// cells in one and its new cells in the other — breaks the sum. Run
// under -race.
func TestColdHotNeverMixed(t *testing.T) {
	// Cells the writer sets: absent from the load, one per chunk, the
	// newest slab's chunks first.
	var written [][3]int64
	for _, tm := range []int64{10, 7, 4, 1} {
		for a := int64(1); a < splitDimA; a += 4 {
			for b := int64(2); b < splitDimB; b += 4 {
				written = append(written, [3]int64{a, b, tm})
			}
		}
	}
	db, model := openSplitDB(t, func(k [3]int64) bool { return k[0]%4 == 1 && k[1]%4 == 2 && k[2]%3 == 1 })
	defer db.Close()
	var baseSum, baseCount int64
	for _, v := range model {
		baseSum += v
		baseCount++
	}

	const batches = 24
	sql := splitStatements[0].sql
	check := func(res *Result) error {
		var sum, count int64
		for _, row := range res.Rows {
			sum += row.Sum
			count += row.Count
		}
		// count - baseCount cells are written, so the batch was
		// 2(cells-1) or the one after, and each holds its number.
		cells := count - baseCount
		even := baseSum + cells*2*(cells-1)
		if cells < 0 || cells > batches/2 || sum != even && sum != even+cells {
			return fmt.Errorf("cached=%v cold=%q: %d written cells visible, sum %d, want %d or %d",
				res.Cached, res.Metrics.ColdCube, cells, sum, even, even+cells)
		}
		return nil
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.Session()
			s.SetParallel(1 + r%2*3)
			for i := 0; !done.Load(); i++ {
				res, err := s.QueryOn(sql, ArrayEngine)
				if err == nil {
					err = check(res)
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d query %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	for r := 0; r < batches; r++ {
		var cells []IngestCell
		for _, k := range written[:r/2+1] {
			cells = append(cells, IngestCell{Keys: append([]int64(nil), k[:]...), Value: int64(r)})
		}
		err := db.InsertCells(cells)
		if err == nil && r%8 == 5 {
			err = db.Compact()
		}
		// Someone refreshes after every batch, if only the writer.
		var res *Result
		if err == nil {
			res, err = db.QueryOn(sql, ArrayEngine)
		}
		if err == nil {
			err = check(res)
		}
		if err != nil {
			t.Errorf("writer at batch %d: %v", r, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := db.MetricsSnapshot()
	if built, hit := snap.Counter("cache_cold_misses_total"), snap.Counter("cache_cold_hits_total"); built < batches/2 || hit < batches/2 {
		t.Fatalf("the readers built %d cold cubes and found %d; the run did not exercise the cut", built, hit)
	}
}
