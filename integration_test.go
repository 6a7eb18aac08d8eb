package repro

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
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

// TestIntegrationRandomQueriesAllEngines loads a moderate synthetic
// database and fires randomized consolidation queries through the SQL
// front door at every engine, asserting identical rows.
func TestIntegrationRandomQueriesAllEngines(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		DimSizes:   []int{16, 12, 20, 10},
		DistinctH1: []int{4, 3, 5, 2},
		DistinctH2: []int{2, 4, 5, 2},
		Density:    0.15,
		Seed:       77,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadDataset(t, db, ds)

	rng := rand.New(rand.NewSource(99))
	aggs := []string{"sum", "count", "min", "max", "avg"}
	for q := 0; q < 25; q++ {
		// Random group-by subset and random selections.
		var groupBy, preds []string
		for d := 0; d < 4; d++ {
			switch rng.Intn(3) {
			case 0:
				groupBy = append(groupBy, fmt.Sprintf("h%d1", d))
			case 1:
				if rng.Intn(2) == 0 {
					groupBy = append(groupBy, fmt.Sprintf("h%d2", d))
				}
			}
			if rng.Intn(3) == 0 {
				preds = append(preds, fmt.Sprintf("h%d2 = 'AA%d'", d, rng.Intn(3)))
			}
		}
		sql := fmt.Sprintf("select %s(volume) ", aggs[rng.Intn(len(aggs))])
		sql += "from fact, dim0, dim1, dim2, dim3"
		if len(preds) > 0 {
			sql += " where " + joinWith(preds, " and ")
		}
		if len(groupBy) > 0 {
			sql += " group by " + joinWith(groupBy, ", ")
		}

		var base []Row
		var basePlan string
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
			res, err := db.QueryOn(sql, eng)
			if err != nil {
				t.Fatalf("query %d engine %v: %v\nsql: %s", q, eng, err, sql)
			}
			if base == nil {
				base = res.Rows
				basePlan = res.Plan
				continue
			}
			if !core.RowsEqual(base, res.Rows) {
				t.Fatalf("query %d: %s and %s disagree\nsql: %s\n%s",
					q, basePlan, res.Plan, sql, core.DiffRows(base, res.Rows))
			}
		}
	}
}

func joinWith(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// TestIntegrationFileBackedEndToEnd runs the full lifecycle against a
// real file with a small buffer pool: load, commit, reopen, query on
// every engine, cube, parallel — all under heavy eviction.
func TestIntegrationFileBackedEndToEnd(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		DimSizes: []int{10, 10, 12},
		Density:  0.25,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e2e.db")
	db, err := Open(Options{Path: path, BufferPoolBytes: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	loadDataset(t, db, ds)
	const sql = `select sum(volume), h01, h11 from fact, dim0, dim1, dim2 group by h01, h11`
	want, err := db.QueryOn(sql, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, BufferPoolBytes: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
		res, err := db2.QueryOn(sql, eng)
		if err != nil {
			t.Fatalf("engine %v after reopen: %v", eng, err)
		}
		if !core.RowsEqual(res.Rows, want.Rows) {
			t.Fatalf("engine %v after reopen differs: %s", eng, core.DiffRows(res.Rows, want.Rows))
		}
	}
	sess := db2.Session()
	sess.SetParallel(4)
	par, err := sess.QueryOn(sql, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(par.Rows, want.Rows) {
		t.Fatalf("parallel after reopen differs: %s", core.DiffRows(par.Rows, want.Rows))
	}
	cuboids, err := db2.Cube(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuboids) != 4 {
		t.Fatalf("cuboids = %d", len(cuboids))
	}
	for _, c := range cuboids {
		if len(c.GroupAttrs) == 2 {
			if !core.RowsEqual(c.Rows, want.Rows) {
				t.Fatalf("base cuboid differs: %s", core.DiffRows(c.Rows, want.Rows))
			}
		}
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

// TestIntegrationAggregatesAcrossEngines verifies non-sum aggregates
// through the SQL surface against hand-computed values.
func TestIntegrationAggregatesAcrossEngines(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	const sql = `select count(volume), region from fact, store group by region`
	var counts = map[string]int64{}
	res, err := db.QueryOn(sql, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range res.Rows {
		counts[r.Groups[0]] = r.Count
		total += r.Count
	}
	// All fact tuples fall in exactly one region group.
	facts, err := db.QueryOn(`select count(volume) from fact`, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	if total != facts.Rows[0].Count {
		t.Fatalf("region counts sum to %d, total tuples %d", total, facts.Rows[0].Count)
	}
	// Array engine agrees.
	res2, err := db.QueryOn(sql, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2.Rows {
		if counts[r.Groups[0]] != r.Count {
			t.Fatalf("array count for %s = %d, want %d", r.Groups[0], r.Count, counts[r.Groups[0]])
		}
	}
}
