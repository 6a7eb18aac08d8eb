package repro

import "testing"

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
