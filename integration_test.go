package repro

import (
	"testing"

	"repro/internal/datagen"
)

// loadDataset fills a DB from a generated synthetic data set.
func loadDataset(t testing.TB, db *DB, ds *datagen.Dataset) {
	t.Helper()
	if err := db.CreateStarSchema(ds.Schema()); err != nil {
		t.Fatal(err)
	}
	for dim := range ds.Schema().Dimensions {
		name := ds.Schema().Dimensions[dim].Name
		err := db.LoadDimensionFunc(name, func(emit func(int64, []string) error) error {
			return ds.EachDimRow(dim, emit)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadFacts(ds.Facts()); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildArray(ArrayConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildBitmapIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleAggregatesInOneQuery exercises several aggregate calls in
// one select list; all of them read from the same per-group state.
func TestMultipleAggregatesInOneQuery(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	res, err := db.Query(`
		select sum(volume), count(volume), min(volume), max(volume), region
		from fact, store group by region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggs) != 4 {
		t.Fatalf("Aggs = %v", res.Aggs)
	}
	for _, r := range res.Rows {
		if r.Count <= 0 || r.Min > r.Max || r.Sum < r.Min {
			t.Fatalf("inconsistent row %+v", r)
		}
		if r.Value(res.Aggs[0]) != r.Sum || r.Value(res.Aggs[1]) != r.Count {
			t.Fatal("Value dispatch wrong for multi-agg row")
		}
	}
}
