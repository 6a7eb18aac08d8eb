package exec

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

// buildTestDB creates, loads, and indexes a small synthetic database.
func buildTestDB(t testing.TB, withArray, withBitmaps bool) (*storage.BufferPool, *catalog.Catalog, *datagen.Dataset) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 4096)
	cat := catalog.NewCatalog()

	ds, err := datagen.Generate(datagen.Config{
		DimSizes:   []int{12, 10, 8},
		DistinctH1: []int{4, 3, 2},
		DistinctH2: []int{3, 2, 4},
		Density:    0.3,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(bp, cat, ds.Schema()); err != nil {
		t.Fatalf("CreateSchema: %v", err)
	}
	for dim := 0; dim < 3; dim++ {
		name := ds.Schema().Dimensions[dim].Name
		err := ds.EachDimRow(dim, func(key int64, attrs []string) error {
			return LoadDimensionRow(bp, cat, name, key, attrs)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := LoadFacts(bp, cat, ds.Facts()); err != nil {
		t.Fatalf("LoadFacts: %v", err)
	}
	if withArray {
		if err := BuildArray(bp, cat, ArrayBuildConfig{ChunkShape: []int{4, 5, 4}}); err != nil {
			t.Fatalf("BuildArray: %v", err)
		}
	}
	if withBitmaps {
		if err := BuildBitmapIndexes(bp, cat); err != nil {
			t.Fatalf("BuildBitmapIndexes: %v", err)
		}
	}
	return bp, cat, ds
}

const testQ1 = `
select sum(volume), dim0.h01, dim1.h11, dim2.h21
from fact, dim0, dim1, dim2
where fact.d0 = dim0.d0 and fact.d1 = dim1.d1 and fact.d2 = dim2.d2
group by h01, h11, h21`

const testQ2 = `
select sum(volume), dim0.h01
from fact, dim0, dim1
where dim0.h02 = 'AA1' and dim1.h12 = 'AA0'
group by h01`

func TestExecutorAllEnginesAgree(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	for _, sql := range []string{testQ1, testQ2} {
		var rows [][]core.Row
		var plans []string
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
			qr, err := e.ExecuteSQLContext(context.Background(), sql, eng)
			if err != nil {
				t.Fatalf("engine %v: %v", eng, err)
			}
			rows = append(rows, qr.Rows)
			plans = append(plans, qr.Plan)
			if qr.Elapsed <= 0 {
				t.Fatalf("engine %v: elapsed %v", eng, qr.Elapsed)
			}
		}
		for i := 1; i < len(rows); i++ {
			if !core.RowsEqual(rows[0], rows[i]) {
				t.Fatalf("plans %s and %s disagree on %q: %s",
					plans[0], plans[i], sql, core.DiffRows(rows[0], rows[i]))
			}
		}
		if len(rows[0]) == 0 {
			t.Fatalf("no rows for %q", sql)
		}
	}
}

func TestExecutorPlanNames(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	cases := []struct {
		sql    string
		engine Engine
		plan   string
	}{
		{testQ1, ArrayEngine, "array-consolidate"},
		{testQ2, ArrayEngine, "array-select-consolidate"},
		{testQ1, StarJoinEngine, "starjoin"},
		{testQ2, StarJoinEngine, "starjoin-filter"},
		{testQ2, BitmapEngine, "bitmap-factfile"},
		{testQ1, BitmapEngine, "starjoin"}, // no selections: falls back
		{testQ1, Auto, "array-consolidate"},
		{testQ2, Auto, "array-select-consolidate"},
	}
	for _, c := range cases {
		qr, err := e.ExecuteSQLContext(context.Background(), c.sql, c.engine)
		if err != nil {
			t.Fatalf("%v on %q: %v", c.engine, c.sql, err)
		}
		if qr.Plan != c.plan {
			t.Errorf("engine %v chose plan %s, want %s", c.engine, qr.Plan, c.plan)
		}
	}
}

func TestExecutorAutoWithoutArray(t *testing.T) {
	bp, cat, _ := buildTestDB(t, false, true)
	e := NewExecutor(bp, cat)
	qr, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan != "bitmap-factfile" {
		t.Fatalf("auto plan = %s, want bitmap-factfile", qr.Plan)
	}
	qr, err = e.ExecuteSQLContext(context.Background(), testQ1, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan != "starjoin" {
		t.Fatalf("auto plan = %s, want starjoin", qr.Plan)
	}
	if _, err := e.ExecuteSQLContext(context.Background(), testQ1, ArrayEngine); err == nil {
		t.Fatal("array engine without array succeeded")
	}
}

func TestExecutorAutoWithoutBitmaps(t *testing.T) {
	bp, cat, _ := buildTestDB(t, false, false)
	e := NewExecutor(bp, cat)
	qr, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan != "starjoin-filter" {
		t.Fatalf("auto plan = %s, want starjoin-filter", qr.Plan)
	}
	if _, err := e.ExecuteSQLContext(context.Background(), testQ2, BitmapEngine); err == nil {
		t.Fatal("bitmap engine without indexes succeeded")
	}
}

func TestExecutorColdVsWarmIO(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, false)
	e := NewExecutor(bp, cat)
	if err := e.DropCaches(); err != nil {
		t.Fatalf("DropCaches: %v", err)
	}
	cold, err := e.ExecuteSQLContext(context.Background(), testQ1, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IO.PhysicalReads == 0 {
		t.Fatal("cold run did no physical reads")
	}
	warm, err := e.ExecuteSQLContext(context.Background(), testQ1, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if warm.IO.PhysicalReads >= cold.IO.PhysicalReads {
		t.Fatalf("warm run read %d pages, cold read %d", warm.IO.PhysicalReads, cold.IO.PhysicalReads)
	}
}

func TestExecutorQueryResultFields(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	qr, err := e.ExecuteSQLContext(context.Background(), testQ2, BitmapEngine)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Aggs) != 1 || qr.Aggs[0] != core.Sum {
		t.Fatalf("Aggs = %v", qr.Aggs)
	}
	if len(qr.GroupAttrs) != 1 || qr.GroupAttrs[0] != "h01" {
		t.Fatalf("GroupAttrs = %v", qr.GroupAttrs)
	}
	if qr.Metrics.TuplesFetched == 0 || qr.Metrics.BitmapsRead != 2 {
		t.Fatalf("Metrics = %+v", qr.Metrics)
	}
}

func TestOpsErrors(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	cat := catalog.NewCatalog()

	if _, err := OpenDimensions(bp, cat); err == nil {
		t.Fatal("OpenDimensions with no schema succeeded")
	}
	if _, err := OpenFactFile(bp, cat); err == nil {
		t.Fatal("OpenFactFile with no fact succeeded")
	}
	if _, err := OpenArray(bp, cat); err == nil {
		t.Fatal("OpenArray with no array succeeded")
	}
	if err := BuildArray(bp, cat, ArrayBuildConfig{}); err == nil {
		t.Fatal("BuildArray with no schema succeeded")
	}
	bad := &catalog.StarSchema{}
	if err := CreateSchema(bp, cat, bad); err == nil {
		t.Fatal("CreateSchema with invalid schema succeeded")
	}

	ds, err := datagen.Generate(datagen.Config{DimSizes: []int{4, 4}, NumFacts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(bp, cat, ds.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(bp, cat, ds.Schema()); err == nil {
		t.Fatal("double CreateSchema succeeded")
	}
	for dim := 0; dim < 2; dim++ {
		name := ds.Schema().Dimensions[dim].Name
		ds.EachDimRow(dim, func(key int64, attrs []string) error {
			return LoadDimensionRow(bp, cat, name, key, attrs)
		})
	}
	if err := LoadFacts(bp, cat, ds.Facts()); err != nil {
		t.Fatal(err)
	}
	if err := LoadFacts(bp, cat, ds.Facts()); err == nil {
		t.Fatal("double LoadFacts succeeded")
	}
	if err := BuildArray(bp, cat, ArrayBuildConfig{Codec: "nosuch"}); err == nil {
		t.Fatal("BuildArray with unknown codec succeeded")
	}
	if err := LoadDimensionRow(bp, cat, "nosuch", 0, nil); err == nil {
		t.Fatal("LoadDimensionRow on unknown dimension succeeded")
	}
}

func TestBuildArrayWithCodecNames(t *testing.T) {
	for _, codec := range []string{"", "adaptive", "chunk-offset", "dense", "lzw", "diff-seq"} {
		bp, cat, _ := buildTestDB(t, false, false)
		if err := BuildArray(bp, cat, ArrayBuildConfig{Codec: codec, ChunkShape: []int{4, 5, 4}}); err != nil {
			t.Fatalf("BuildArray(%q): %v", codec, err)
		}
		st := cat.Stats.Array
		wantMode := codec
		if codec == "" {
			wantMode = "adaptive"
		}
		if st.Codec != wantMode {
			t.Fatalf("BuildArray(%q): stats report codec %q", codec, st.Codec)
		}
		var chunks, bytes int64
		for _, cs := range st.Codecs {
			chunks += cs.Chunks
			bytes += cs.EncodedBytes
		}
		if bytes != st.EncodedBytes {
			t.Fatalf("BuildArray(%q): per-codec bytes %d != total %d", codec, bytes, st.EncodedBytes)
		}
		if wantMode != "adaptive" && len(st.Codecs) > 1 {
			t.Fatalf("BuildArray(%q): forced store reports %v", codec, st.Codecs)
		}
		e := NewExecutor(bp, cat)
		qr, err := e.ExecuteSQLContext(context.Background(), testQ1, ArrayEngine)
		if err != nil || len(qr.Rows) == 0 {
			t.Fatalf("query on %q-coded array: %v", codec, err)
		}
	}
}

func TestEngineString(t *testing.T) {
	for _, e := range []Engine{Auto, ArrayEngine, StarJoinEngine, BitmapEngine, Engine(9)} {
		if e.String() == "" {
			t.Fatal("empty engine name")
		}
	}
}

// TestExecutorAgainstReference cross-checks the executor paths against
// core.ReferenceConsolidate through the SQL front door.
func TestExecutorAgainstReference(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	spec, err := query.ParseAndCompile(testQ2, cat.Schema)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := OpenDimensions(bp, cat)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFactFile(bp, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReferenceConsolidate(ff, dims, spec.Selections, spec.Group)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
		qr, err := e.Execute(spec, eng)
		if err != nil {
			t.Fatal(err)
		}
		if !core.RowsEqual(qr.Rows, want) {
			t.Fatalf("engine %v != reference: %s", eng, core.DiffRows(qr.Rows, want))
		}
	}
}
