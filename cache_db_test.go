package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDBQueryCacheHitAndUpdateInvalidation drives the mid-tier query
// cache end to end at the DB API: a repeated consolidation is served
// from the result cache (EXPLAIN ANALYZE reports the hit), an ingested
// cell evicts the chunks' entries so the next run re-executes against
// the new data instead of serving the stale rows, and a commit swaps
// the generation, counting what it retires as invalidated.
func TestDBQueryCacheHitAndUpdateInvalidation(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	first, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold run reported cached")
	}
	second, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated run not served from the result cache")
	}
	if !core.RowsEqual(first.Rows, second.Rows) {
		t.Fatalf("cached rows differ: %s", core.DiffRows(first.Rows, second.Rows))
	}
	if second.Elapsed > first.Elapsed {
		t.Fatalf("cached run slower than engine run: %v > %v", second.Elapsed, first.Elapsed)
	}

	ea, err := db.QueryOn("explain analyze "+retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if text := ea.Explanation.String(); !strings.Contains(text, "cache: hit (epoch") {
		t.Fatalf("EXPLAIN ANALYZE missing cache-hit line:\n%s", text)
	}

	es := db.Stats()
	if !es.HasCache || es.ResultCache.Hits < 2 {
		t.Fatalf("EngineStats cache section wrong: %+v", es)
	}

	// Update one cell: the requery must see the new value, not the
	// cached rows.
	v, ok, err := db.ArrayGet([]int64{4, 0, 0})
	if err != nil || !ok {
		t.Fatalf("seed cell missing: %v", err)
	}
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 0}, Value: v + 100}}); err != nil {
		t.Fatal(err)
	}
	third, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("post-update run served stale cached rows")
	}
	sum := func(rows []Row) (s int64) {
		for _, r := range rows {
			s += r.Sum
		}
		return s
	}
	if got, want := sum(third.Rows), sum(first.Rows)+100; got != want {
		t.Fatalf("post-update total = %d, want %d", got, want)
	}
	// Per-chunk ingest evicts entries without a generation swap; a
	// commit swaps it, retiring the entry the requery cached.
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ResultCache.Invalidated == 0 {
		t.Fatal("stale entry not counted as invalidated")
	}
}

// TestDBChunkCacheServesDecodedChunks verifies the second cache layer:
// two different selective array queries touch the same chunks, so the
// second one is served decoded cells from the chunk cache even though
// its result-cache fingerprint differs. (Full scans deliberately do not
// populate the chunk cache — scan resistance — so the test drives the
// selective probe path, which does.)
func TestDBChunkCacheServesDecodedChunks(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	if _, err := db.QueryOn(retailSelectQuery, ArrayEngine); err != nil {
		t.Fatal(err)
	}
	es := db.Stats()
	if es.ChunkCache.Entries == 0 {
		t.Fatalf("selective probe did not populate the chunk cache: %+v", es.ChunkCache)
	}
	// Same selections, different grouping: a distinct result-cache key
	// that probes the same chunks.
	other := `select sum(volume), region
	          from fact, product, store
	          where product.category = 'cat1' and store.region = 'region0'
	          group by region`
	if _, err := db.QueryOn(other, ArrayEngine); err != nil {
		t.Fatal(err)
	}
	es = db.Stats()
	if es.ChunkCache.Hits == 0 {
		t.Fatalf("chunk cache never hit: %+v", es.ChunkCache)
	}
}

// TestSessionCacheOptOut checks the per-session CACHE switch: an opted-
// out session neither reads nor populates the shared result cache.
func TestSessionCacheOptOut(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	off := db.Session()
	off.SetCache(false)
	for i := 0; i < 2; i++ {
		res, err := off.Query(retailQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("run %d: opted-out session served from cache", i)
		}
	}
	on := db.Session()
	res, err := on.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("opted-out session populated the cache")
	}
	res, err = on.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("default session did not use the cache")
	}
}

// TestLateDimensionLoadInvalidates: a dimension member loaded after a
// statement was memoised and its rows cached must show in the next run.
// The fact of product 11 has no dimension row at first, so the star join
// drops it; once the row is loaded the statement must be re-planned and
// re-run, not served the old sum. The bitmap indexes cannot be built over
// a dangling fact, so the bitmap plan's turn comes after, with a member no
// fact references: its sum cannot move, but its run must still be fresh.
func TestLateDimensionLoadInvalidates(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateStarSchema(retailSchema()); err != nil {
		t.Fatal(err)
	}
	product := func(k int64) DimensionRow {
		return DimensionRow{Key: k, Attrs: []string{"type0", "cat0"}}
	}
	var products, stores, times []DimensionRow
	var facts []FactTuple
	for k := int64(0); k < 12; k++ {
		if k < 11 {
			products = append(products, product(k))
		}
		stores = append(stores, DimensionRow{Key: k, Attrs: []string{"city0", "region0"}})
		times = append(times, DimensionRow{Key: k, Attrs: []string{"m0", "y0"}})
		facts = append(facts, FactTuple{Keys: []int64{k, k, k}, Measure: 1})
	}
	for name, rows := range map[string][]DimensionRow{"product": products, "store": stores, "time": times} {
		if err := db.LoadDimension(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatal(err)
	}
	db.EnableQueryCache(16 << 20)

	const sql = `select sum(volume), category from fact, product, store
	             where store.region = 'region0' group by category`
	// learn runs sql until it is memoised and cached: seen, kept, served.
	learn := func(eng Engine, want int64) {
		t.Helper()
		for run := 0; run < 3; run++ {
			res, err := db.QueryOn(sql, eng)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0].Sum != want || res.Cached != (run > 0) {
				t.Fatalf("%v, run %d: cached=%v rows %+v; want one row, sum %d", eng, run, res.Cached, res.Rows, want)
			}
		}
	}
	fresh := func(eng Engine, want int64) {
		t.Helper()
		res, err := db.QueryOn(sql, eng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.Explanation.Memo != "miss" || res.Rows[0].Sum != want {
			t.Fatalf("%v after the load: cached=%v memo=%s sum=%d; want a fresh run, sum %d",
				eng, res.Cached, res.Explanation.Memo, res.Rows[0].Sum, want)
		}
	}

	learn(StarJoinEngine, 11)
	if err := db.LoadDimension("product", []DimensionRow{product(11)}); err != nil {
		t.Fatal(err)
	}
	fresh(StarJoinEngine, 12)

	if err := db.BuildBitmapIndexes(); err != nil {
		t.Fatal(err)
	}
	learn(StarJoinEngine, 12)
	learn(BitmapEngine, 12)
	err = db.LoadDimensionFunc("product", func(emit func(int64, []string) error) error {
		return emit(12, product(12).Attrs)
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh(StarJoinEngine, 12)
	fresh(BitmapEngine, 12)
}
