package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestDBCellUpdatesAgreeAcrossEngines overwrites, inserts and deletes
// cells through the one write path — InsertCells, then Compact, then a
// reopen — and checks at every step that the totals moved by exactly
// the writes and that every engine answers alike.
func TestDBCellUpdatesAgreeAcrossEngines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "upd.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)

	totals := func(db *DB) (sum, count int64) {
		t.Helper()
		res, err := db.QueryOn(retailQuery, ArrayEngine)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			sum += r.Sum
			count += r.Count
		}
		return sum, count
	}
	sumBefore, countBefore := totals(db)

	// Overwrite one cell (+100), insert one (+50), delete one (cell
	// (0,0,0) has measure 0, so deleting it shifts counts not sums).
	v400, ok, err := db.ArrayGet([]int64{4, 0, 0})
	if err != nil || !ok {
		t.Fatalf("seed cell missing: %v", err)
	}
	if err := db.InsertCells([]IngestCell{
		{Keys: []int64{4, 0, 0}, Value: v400 + 100},
		{Keys: []int64{1, 0, 0}, Value: 50}, // (1+0+0)%4 != 0: insert
		{Keys: []int64{0, 0, 0}, Delete: true},
	}); err != nil {
		t.Fatalf("InsertCells: %v", err)
	}

	check := func(stage string, db *DB) {
		t.Helper()
		sum, count := totals(db)
		if sum != sumBefore+150 || count != countBefore { // +1 insert, -1 delete
			t.Fatalf("%s: total = %d over %d cells, want %d over %d", stage, sum, count, sumBefore+150, countBefore)
		}
		for _, q := range []struct {
			sql     string
			engines []Engine
		}{
			{retailQuery, []Engine{ArrayEngine, StarJoinEngine}},
			{retailSelectQuery, []Engine{ArrayEngine, StarJoinEngine, BitmapEngine}},
		} {
			var ref []Row
			for _, eng := range q.engines {
				res, err := db.QueryOn(q.sql, eng)
				if err != nil {
					t.Fatalf("%s: %v: %v", stage, eng, err)
				}
				if ref == nil {
					ref = res.Rows
				} else if !core.RowsEqual(ref, res.Rows) {
					t.Fatalf("%s: %v disagrees with the array engine: %s", stage, eng, core.DiffRows(ref, res.Rows))
				}
			}
		}
		if v, ok, err := db.ArrayGet([]int64{1, 0, 0}); err != nil || !ok || v != 50 {
			t.Fatalf("%s: inserted cell = (%d, %v, %v)", stage, v, ok, err)
		}
		if _, ok, _ := db.ArrayGet([]int64{0, 0, 0}); ok {
			t.Fatalf("%s: deleted cell still present", stage)
		}
	}
	check("pending", db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", db)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.DeltaStats(); st.Cells != 0 {
		t.Fatalf("compacted cells replayed from the delta log: %+v", st)
	}
	check("reopened", db2)
}

// TestInsertCellsRejectsBadKeys: a cell with the wrong number of keys
// or a key no dimension has fails its whole batch, and nothing of that
// batch is applied.
func TestInsertCellsRejectsBadKeys(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	good := IngestCell{Keys: []int64{1, 0, 0}, Value: 50}
	for name, bad := range map[string]IngestCell{
		"wrong key count": {Keys: []int64{1, 0}, Value: 1},
		"unknown key":     {Keys: []int64{99, 0, 0}, Value: 1},
	} {
		if err := db.InsertCells([]IngestCell{good, bad}); err == nil {
			t.Fatalf("%s: InsertCells succeeded", name)
		}
		if st := db.DeltaStats(); st.Cells != 0 {
			t.Fatalf("%s: rejected batch left %d cells pending", name, st.Cells)
		}
		if _, ok, err := db.ArrayGet(good.Keys); err != nil || ok {
			t.Fatalf("%s: the good cell of a rejected batch is visible (%v, %v)", name, ok, err)
		}
	}
}
