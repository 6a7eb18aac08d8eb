package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// memoryTestDataset is shared by the memory-path differentials: big
// enough that a 128 KB pool evicts constantly, small enough to stay
// fast.
func memoryTestDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		DimSizes:   []int{14, 12, 16},
		DistinctH1: []int{4, 3, 5},
		DistinctH2: []int{2, 4, 3},
		Density:    0.2,
		Seed:       41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var memoryTestQueries = []string{
	`select sum(volume), h01, h11 from fact, dim0, dim1, dim2 group by h01, h11`,
	`select count(volume), h02 from fact, dim0, dim1, dim2 where h12 = 'AA1' group by h02`,
	`select min(volume), max(volume), h21 from fact, dim0, dim1, dim2 group by h21`,
	`select avg(volume) from fact, dim0, dim1, dim2 where h01 = 'AA0'`,
}

// TestReplacerEngineDegreeDifferential is the memory path's oracle:
// every engine, every parallel degree must produce bit-identical rows
// under a pool so small that every query runs under eviction pressure —
// which keeps the replacement order honest — with the arena-backed
// decode and result paths running under all of it.
func TestReplacerEngineDegreeDifferential(t *testing.T) {
	ds := memoryTestDataset(t)
	var want [][]Row // per query, from the first combination

	db, err := Open(Options{BufferPoolBytes: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	loadDataset(t, db, ds)
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
		for _, deg := range []int{1, 2, 4} {
			db.SetParallel(deg)
			for qi, sql := range memoryTestQueries {
				res, err := db.QueryOn(sql, eng)
				if err != nil {
					t.Fatalf("%v/deg=%d query %d: %v", eng, deg, qi, err)
				}
				if qi >= len(want) {
					want = append(want, res.Rows)
					continue
				}
				if !core.RowsEqual(want[qi], res.Rows) {
					t.Fatalf("%v/deg=%d query %d diverges:\n%s",
						eng, deg, qi, core.DiffRows(res.Rows, want[qi]))
				}
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaRecyclingStaysDeterministic re-runs the same queries many
// times on one handle, so pooled query arenas are acquired, released,
// and reused across queries and parallel degrees. Any retained arena
// memory escaping a query (a Result still referencing a recycled arena)
// shows up as row corruption here.
func TestArenaRecyclingStaysDeterministic(t *testing.T) {
	ds := memoryTestDataset(t)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadDataset(t, db, ds)

	var want [][]Row
	for qi, sql := range memoryTestQueries {
		res, err := db.QueryOn(sql, ArrayEngine)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want = append(want, res.Rows)
	}
	for round := 0; round < 10; round++ {
		deg := 1 + round%4
		db.SetParallel(deg)
		for qi, sql := range memoryTestQueries {
			res, err := db.QueryOn(sql, ArrayEngine)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, qi, err)
			}
			if !core.RowsEqual(want[qi], res.Rows) {
				t.Fatalf("round %d (deg=%d) query %d diverges after arena recycling:\n%s",
					round, deg, qi, core.DiffRows(res.Rows, want[qi]))
			}
		}
	}
}
