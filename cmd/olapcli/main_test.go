package main

import (
	"context"
	"testing"

	repro "repro"
	"repro/client"
	"repro/internal/server"
)

// embeddedCLI is the cli main builds for -db mode.
func embeddedCLI(db *repro.DB) *cli {
	return &cli{s: embedded{server.NewSession(db, &server.Config{})}, db: db, maxRows: 10}
}

func TestParseEngine(t *testing.T) {
	cases := map[string]client.Engine{
		"auto":     client.Auto,
		"ARRAY":    client.Array,
		"starjoin": client.StarJoin,
		"Bitmap":   client.Bitmap,
	}
	for name, want := range cases {
		got, err := parseEngine(name)
		if err != nil || got != want {
			t.Errorf("parseEngine(%q) = (%v, %v), want %v", name, got, err, want)
		}
	}
	if _, err := parseEngine("quantum"); err == nil {
		t.Error("parseEngine accepted unknown engine")
	}
}

func TestRunQueryAgainstDB(t *testing.T) {
	db, err := repro.Open(repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := &repro.StarSchema{
		Fact: repro.FactSchema{Name: "f", Dims: []string{"d"}, Measure: "v"},
		Dimensions: []repro.DimensionSchema{
			{Name: "d", Key: "k", Attrs: []string{"a"}},
		},
	}
	if err := db.CreateStarSchema(schema); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDimension("d", []repro.DimensionRow{
		{Key: 0, Attrs: []string{"x"}}, {Key: 1, Attrs: []string{"y"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadFactRows([]repro.FactTuple{
		{Keys: []int64{0}, Measure: 5}, {Keys: []int64{1}, Measure: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := embeddedCLI(db).runQuery("select sum(v), a from f, d group by a"); err != nil {
		t.Fatalf("runQuery: %v", err)
	}
	if err := embeddedCLI(db).runQuery("not sql"); err == nil {
		t.Fatal("runQuery accepted garbage")
	}
	if got := dimKeys(schema); len(got) != 1 || got[0] != "k" {
		t.Fatalf("dimKeys = %v", got)
	}
}

func TestParseInsertCells(t *testing.T) {
	cells, err := parseInsertCells("3,2,1=500  7,0,4=del")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("parsed %d cells", len(cells))
	}
	if cells[0].Keys[0] != 3 || cells[0].Keys[2] != 1 || cells[0].Value != 500 || cells[0].Delete {
		t.Fatalf("cell 0 = %+v", cells[0])
	}
	if !cells[1].Delete || cells[1].Keys[1] != 0 {
		t.Fatalf("cell 1 = %+v", cells[1])
	}
	for _, bad := range []string{"", "1,2", "1,2=", "a,2=5", "1,2=x5"} {
		if _, err := parseInsertCells(bad); err == nil {
			t.Errorf("parseInsertCells(%q) succeeded", bad)
		}
	}
}

// The insert meta-command must land cells in the delta store and survive
// a compaction round trip through the array.
func TestInsertMetaCommandLocal(t *testing.T) {
	db, err := repro.Open(repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := &repro.StarSchema{
		Fact: repro.FactSchema{Name: "f", Dims: []string{"d"}, Measure: "v"},
		Dimensions: []repro.DimensionSchema{
			{Name: "d", Key: "k", Attrs: []string{"a"}},
		},
	}
	if err := db.CreateStarSchema(schema); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDimension("d", []repro.DimensionRow{
		{Key: 0, Attrs: []string{"x"}}, {Key: 1, Attrs: []string{"y"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadFactRows([]repro.FactTuple{{Keys: []int64{0}, Measure: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildArray(repro.ArrayConfig{}); err != nil {
		t.Fatal(err)
	}
	cells, err := parseInsertCells("1=9")
	if err != nil {
		t.Fatal(err)
	}
	if err := embeddedCLI(db).s.Ingest(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query("select sum(v), a from f, d group by a")
	if err != nil || len(r.Rows) != 2 {
		t.Fatalf("query after insert = (%v, %v)", r, err)
	}
}
