package repro

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// retailSchema is the paper's running example (§2.2).
func retailSchema() *StarSchema {
	return &StarSchema{
		Fact: FactSchema{Name: "fact", Dims: []string{"product", "store", "time"}, Measure: "volume"},
		Dimensions: []DimensionSchema{
			{Name: "product", Key: "pid", Attrs: []string{"type", "category"}},
			{Name: "store", Key: "sid", Attrs: []string{"city", "region"}},
			{Name: "time", Key: "tid", Attrs: []string{"month", "year"}},
		},
	}
}

// loadRetail fills a small deterministic retail database.
func loadRetail(t testing.TB, db *DB) {
	t.Helper()
	loadRetailArray(t, db, ArrayConfig{ChunkShape: []int{4, 4, 3}})
}

// loadRetailArray is loadRetail with the array configuration exposed, for
// tests that exercise specific codecs or chunk shapes.
func loadRetailArray(t testing.TB, db *DB, cfg ArrayConfig) {
	t.Helper()
	loadRetailProducts(t, db, cfg, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
}

// loadRetailProducts is loadRetailArray with the product keys 0..11
// loaded in the order given, which is the order of their array indexes.
func loadRetailProducts(t testing.TB, db *DB, cfg ArrayConfig, productKeys []int64) {
	t.Helper()
	if err := db.CreateStarSchema(retailSchema()); err != nil {
		t.Fatalf("CreateStarSchema: %v", err)
	}
	var products, stores, times []DimensionRow
	for _, k := range productKeys {
		products = append(products, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("type%d", k%4), fmt.Sprintf("cat%d", k%2)}})
	}
	for k := int64(0); k < 8; k++ {
		stores = append(stores, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("city%d", k%4), fmt.Sprintf("region%d", k%2)}})
	}
	for k := int64(0); k < 6; k++ {
		times = append(times, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("m%d", k%3), fmt.Sprintf("y%d", k/3)}})
	}
	for name, rows := range map[string][]DimensionRow{
		"product": products, "store": stores, "time": times,
	} {
		if err := db.LoadDimension(name, rows); err != nil {
			t.Fatalf("LoadDimension(%s): %v", name, err)
		}
	}
	var facts []FactTuple
	for p := int64(0); p < 12; p++ {
		for s := int64(0); s < 8; s++ {
			for tm := int64(0); tm < 6; tm++ {
				if (p+s+tm)%4 == 0 {
					facts = append(facts, FactTuple{
						Keys:    []int64{p, s, tm},
						Measure: p*100 + s*10 + tm,
					})
				}
			}
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatalf("LoadFactRows: %v", err)
	}
	if err := db.BuildArray(cfg); err != nil {
		t.Fatalf("BuildArray: %v", err)
	}
	if err := db.BuildBitmapIndexes(); err != nil {
		t.Fatalf("BuildBitmapIndexes: %v", err)
	}
}

const retailQuery = `
select sum(volume), city, type
from fact, product, store
where fact.pid = product.pid and fact.sid = store.sid
group by city, type`

const retailSelectQuery = `
select sum(volume), city
from fact, product, store
where product.category = 'cat1' and store.region = 'region0'
group by city`

func TestDBInMemoryLifecycle(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	loadRetail(t, db)

	if db.Schema() == nil || db.Schema().Fact.Name != "fact" {
		t.Fatal("Schema missing")
	}

	var results []*Result
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine, Auto} {
		r, err := db.QueryOn(retailQuery, eng)
		if err != nil {
			t.Fatalf("QueryOn(%v): %v", eng, err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !core.RowsEqual(results[0].Rows, results[i].Rows) {
			t.Fatalf("engines disagree: %s", core.DiffRows(results[0].Rows, results[i].Rows))
		}
	}
	// 4 cities x 4 types.
	if len(results[0].Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(results[0].Rows))
	}
	// Group columns come back in dimension order (product before store),
	// independent of the GROUP BY spelling.
	if results[0].GroupAttrs[0] != "type" || results[0].GroupAttrs[1] != "city" {
		t.Fatalf("GroupAttrs = %v", results[0].GroupAttrs)
	}
}

func TestDBSelectionQueryAcrossEngines(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	var base []Row
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
		r, err := db.QueryOn(retailSelectQuery, eng)
		if err != nil {
			t.Fatalf("QueryOn(%v): %v", eng, err)
		}
		if base == nil {
			base = r.Rows
			if len(base) == 0 {
				t.Fatal("selection query returned no rows")
			}
			continue
		}
		if !core.RowsEqual(base, r.Rows) {
			t.Fatalf("engine %v disagrees: %s", eng, core.DiffRows(base, r.Rows))
		}
	}
}

func TestDBPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retail.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	want, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.Schema() == nil {
		t.Fatal("schema lost across reopen")
	}
	got, err := db2.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan != "array-consolidate" {
		t.Fatalf("reopened plan = %s (array lost?)", got.Plan)
	}
	if !core.RowsEqual(want.Rows, got.Rows) {
		t.Fatalf("results differ across reopen: %s", core.DiffRows(want.Rows, got.Rows))
	}
	// Bitmap indexes must survive too.
	sel, err := db2.QueryOn(retailSelectQuery, BitmapEngine)
	if err != nil || sel.Plan != "bitmap-factfile" {
		t.Fatalf("bitmap plan after reopen = (%v, %v)", sel, err)
	}
}

func TestDBWALRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.db")

	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	want, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	// The process dies after Commit but before Close. Reopen must see
	// everything.
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Abandon db without Close: on-disk state = the committed volume.
	db.disk.Close()

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	got, err := db2.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(want.Rows, got.Rows) {
		t.Fatalf("post-crash results differ: %s", core.DiffRows(want.Rows, got.Rows))
	}
}

func TestDBSizes(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Sizes(); err == nil {
		t.Fatal("Sizes before schema succeeded")
	}
	loadRetail(t, db)
	rep, err := db.Sizes()
	if err != nil {
		t.Fatalf("Sizes: %v", err)
	}
	if rep.FactFileBytes <= 0 || rep.DimensionBytes <= 0 || rep.ArrayBytes <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ArrayCodec != "adaptive" {
		t.Fatalf("codec = %s", rep.ArrayCodec)
	}
	if rep.FactTuples == 0 || rep.ArrayChunks == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Adaptive selection can only improve on forcing the paper's
	// chunk-offset codec (12 bytes per valid cell) everywhere.
	if rep.ArrayEncodedBytes > int64(rep.FactTuples)*12 {
		t.Fatalf("encoded bytes = %d, want <= %d (12 per valid cell)",
			rep.ArrayEncodedBytes, rep.FactTuples*12)
	}
	var chunks, encoded int64
	for _, u := range rep.ArrayCodecs {
		chunks += u.Chunks
		encoded += u.EncodedBytes
	}
	if encoded != rep.ArrayEncodedBytes || chunks == 0 {
		t.Fatalf("per-codec usage %v does not sum to %d encoded bytes", rep.ArrayCodecs, rep.ArrayEncodedBytes)
	}
}

func TestDBBufferPoolOption(t *testing.T) {
	db, err := Open(Options{BufferPoolBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db) // must survive heavy eviction with 8 frames
	r, err := db.Query(retailQuery)
	if err != nil || len(r.Rows) != 16 {
		t.Fatalf("tiny-pool query = (%v, %v)", r, err)
	}
}

func TestDBDropCaches(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	if err := db.DropCaches(); err != nil {
		t.Fatalf("DropCaches: %v", err)
	}
	before := db.Stats()
	r, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if r.IO.PhysicalReads == 0 {
		t.Fatal("cold query did no physical reads")
	}
	after := db.Stats()
	if after.Buffer.Sub(before.Buffer).PhysicalReads != r.IO.PhysicalReads {
		t.Fatal("per-query IO delta inconsistent with global stats")
	}
}

func TestDBQueryErrors(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query("select sum(volume) from fact"); err == nil {
		t.Fatal("query before schema succeeded")
	}
	loadRetail(t, db)
	if _, err := db.Query("not sql"); err == nil {
		t.Fatal("garbage query succeeded")
	}
	if _, err := db.Query("select sum(volume) from nosuch"); err == nil {
		t.Fatal("unknown table succeeded")
	}
}
