package repro

import (
	"strings"
	"testing"
)

// queryCached runs sql and reports whether it was served from the
// result cache.
func queryCached(t *testing.T, db *DB, sql string) bool {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return res.Cached
}

// timeSelectQuery selects time.year = 'y0', which covers only the
// chunks whose time-block coordinate is 0 (times 0..2 of 0..5 under
// chunk shape {4,4,3}) — half the array. Used to verify that ingest
// into the other half does not evict its cached result.
const timeSelectQuery = `
select sum(volume), city
from fact, store, time
where time.year = 'y0'
group by city`

// TestNoopWritesKeepCache is the invalidation-over-reach regression
// test: an empty ingest batch and DropCaches must not bump the global
// epoch. DropCaches empties cache content (that is its job) but a
// subsequently repopulated entry proves the epoch still matches.
func TestNoopWritesKeepCache(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	if queryCached(t, db, retailQuery) {
		t.Fatal("first execution cached")
	}
	if !queryCached(t, db, retailQuery) {
		t.Fatal("second execution not cached")
	}

	// Empty batch: nothing changed, so the entry must survive.
	if err := db.InsertCells(nil); err != nil {
		t.Fatal(err)
	}
	if !queryCached(t, db, retailQuery) {
		t.Fatal("empty ingest batch evicted the result cache")
	}

	// DropCaches clears content without burning an epoch: the next run
	// misses (content gone) but its repopulation is immediately served.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if queryCached(t, db, retailQuery) {
		t.Fatal("DropCaches left the entry behind")
	}
	if !queryCached(t, db, retailQuery) {
		t.Fatal("cache did not repopulate after DropCaches")
	}

	// A real update still invalidates.
	v, ok, err := db.ArrayGet([]int64{4, 0, 0})
	if err != nil || !ok {
		t.Fatal("seed cell missing")
	}
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 0}, Value: v + 1}}); err != nil {
		t.Fatal(err)
	}
	if queryCached(t, db, retailQuery) {
		t.Fatal("real update served a stale cached result")
	}
}

// TestPerChunkInvalidation is the tentpole's cache behavior: ingest
// into chunks a query cannot observe keeps its cached result; ingest
// into an observable chunk evicts exactly it.
func TestPerChunkInvalidation(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	queryCached(t, db, timeSelectQuery) // populate
	if !queryCached(t, db, timeSelectQuery) {
		t.Fatal("select query not cached")
	}
	queryCached(t, db, retailQuery) // populate the unselective query too
	if !queryCached(t, db, retailQuery) {
		t.Fatal("full query not cached")
	}

	// Ingest into time index 5 — outside the y0 query's chunk window.
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 5}, Value: 4321}}); err != nil {
		t.Fatal(err)
	}
	if !queryCached(t, db, timeSelectQuery) {
		t.Fatal("ingest outside the query's chunks evicted its cached result")
	}
	// The selection-free query observes every chunk: it must miss, and
	// must see the new value.
	res, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("unselective query served stale result after ingest")
	}

	// Ingest into time index 0 — inside the y0 window: evict.
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 0}, Value: 8765}}); err != nil {
		t.Fatal(err)
	}
	if queryCached(t, db, timeSelectQuery) {
		t.Fatal("ingest into the query's chunks did not evict its cached result")
	}
}

// TestCompactionKeepsCache: folding deltas changes no observable
// content, so cached results (and their keys) must survive a Compact.
func TestCompactionKeepsCache(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	retailIngest(t, db)
	queryCached(t, db, retailQuery) // populate post-ingest
	if !queryCached(t, db, retailQuery) {
		t.Fatal("post-ingest query not cached")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if !queryCached(t, db, retailQuery) {
		t.Fatal("compaction evicted a still-valid cached result")
	}
	// And the served-after-compaction rows must match a fresh run.
	res, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCaches(); err != nil { // force fresh execution
		t.Fatal(err)
	}
	fresh, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(fresh.Rows) {
		t.Fatalf("cached rows diverge after compaction: %d vs %d", len(res.Rows), len(fresh.Rows))
	}
	for i := range res.Rows {
		if res.Rows[i].Sum != fresh.Rows[i].Sum {
			t.Fatalf("row %d: cached sum %d != fresh sum %d", i, res.Rows[i].Sum, fresh.Rows[i].Sum)
		}
	}
}

// TestSupersededEntriesLeaveTheCache runs one statement after each of N
// ingest batches into a chunk it reads: every run keys its result under
// a new delta-version suffix, and the entry under the previous suffix —
// which nothing will ask for again — must go when the new one is stored,
// not wait for the LRU. The same holds for the array plan's cold cube,
// whose key moves when a batch touches a chunk of the statement's reach
// for the first time (here the fifth batch): N ingests and re-runs leave
// one rows entry and at most one cold entry per statement. A statement
// the ingest cannot reach keeps its one entry, and keeps being served
// from it.
func TestSupersededEntriesLeaveTheCache(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)

	otherBlock := strings.Replace(timeSelectQuery, "y0", "y1", 1)
	queryCached(t, db, otherBlock)
	var oneCube float64 // bytes of the statement's cold cube, once it has one
	for i := int64(0); i < 8; i++ {
		cell := []int64{4, 0, 0}
		if i >= 4 {
			cell = []int64{8, 4, 1} // another chunk of the y0 block
		}
		if err := db.InsertCells([]IngestCell{{Keys: cell, Value: 1000 + i}}); err != nil {
			t.Fatal(err)
		}
		if queryCached(t, db, timeSelectQuery) {
			t.Fatalf("run %d served a result from before its ingest", i)
		}
		if !queryCached(t, db, timeSelectQuery) || !queryCached(t, db, otherBlock) {
			t.Fatalf("run %d: a repeat with no ingest in its reach was not served from the cache", i)
		}
		cold := db.MetricsSnapshot().Gauge("cache_cold_bytes")
		if i == 0 {
			oneCube = cold
		} else if cold != oneCube {
			t.Fatalf("after %d ingests and re-runs the cache holds %v bytes of cold cubes, one is %v", i+1, cold, oneCube)
		}
		want := int64(2)
		if cold > 0 {
			want++
		}
		if n := db.Stats().ResultCache.Entries; n != want {
			t.Fatalf("after %d ingests and re-runs the cache holds %d entries, want %d (rows per statement, plus %v bytes of cold cube)",
				i+1, n, want, cold)
		}
	}
	if touched := db.DeltaStats().TouchedChunks; touched != 2 {
		t.Fatalf("the ingests touched %d chunks, want 2 so the cold cube's key moved", touched)
	}
}

// TestCandidateChunksResolvedOncePerStatement: with deltas pending, the
// cache key of a selection needs the statement's candidate chunks. They
// are resolved once and kept with the memoised statement, so a repeat
// that is served from the cache walks no B-tree at all.
func TestCandidateChunksResolvedOncePerStatement(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(16 << 20)
	// Before any ingest nobody needs them: a relational plan walks none.
	before := db.MetricsSnapshot().Counter("btree_node_reads_total")
	if _, err := db.QueryOn(timeSelectQuery, BitmapEngine); err != nil {
		t.Fatal(err)
	}
	if n := db.MetricsSnapshot().Counter("btree_node_reads_total") - before; n != 0 {
		t.Fatalf("a bitmap-plan selection with nothing ever ingested read %d B-tree nodes", n)
	}
	if err := db.InsertCells([]IngestCell{{Keys: []int64{4, 0, 0}, Value: 999}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the third run is a memo hit
		queryCached(t, db, timeSelectQuery)
	}
	before = db.MetricsSnapshot().Counter("btree_node_reads_total")
	if !queryCached(t, db, timeSelectQuery) {
		t.Fatal("repeat not served from the cache")
	}
	if n := db.MetricsSnapshot().Counter("btree_node_reads_total") - before; n != 0 {
		t.Fatalf("a cached repeat of a memoised statement read %d B-tree nodes", n)
	}
}
