package catalog

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

func testSchema() *StarSchema {
	return &StarSchema{
		Fact: FactSchema{Name: "fact", Dims: []string{"dim0", "dim1"}, Measure: "volume"},
		Dimensions: []DimensionSchema{
			{Name: "dim0", Key: "d0", Attrs: []string{"h01", "h02"}},
			{Name: "dim1", Key: "d1", Attrs: []string{"h11", "h12"}},
		},
	}
}

func TestStarSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*StarSchema{
		{}, // empty
		{Fact: FactSchema{Name: "f", Measure: "m"}},
		{Fact: FactSchema{Name: "f", Measure: "m", Dims: []string{"a"}},
			Dimensions: []DimensionSchema{{Name: "b", Key: "k"}}}, // name mismatch
		{Fact: FactSchema{Name: "f", Measure: "m", Dims: []string{"a", "a"}},
			Dimensions: []DimensionSchema{{Name: "a", Key: "k"}, {Name: "a", Key: "k"}}}, // dup dim
		{Fact: FactSchema{Name: "f", Measure: "m", Dims: []string{"a"}},
			Dimensions: []DimensionSchema{{Name: "a", Key: "k", Attrs: []string{"x", "x"}}}}, // dup attr
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestStarSchemaLookups(t *testing.T) {
	s := testSchema()
	if s.NumDims() != 2 {
		t.Fatalf("NumDims = %d", s.NumDims())
	}
	if s.DimIndex("dim1") != 1 || s.DimIndex("nope") != -1 {
		t.Fatal("DimIndex wrong")
	}
	if s.Dim("dim0") == nil || s.Dim("nope") != nil {
		t.Fatal("Dim wrong")
	}
	if s.Dim("dim0").AttrLevel("h02") != 1 || s.Dim("dim0").AttrLevel("zzz") != -1 {
		t.Fatal("AttrLevel wrong")
	}
	dim, level, err := s.ResolveAttr("h11")
	if err != nil || dim != 1 || level != 0 {
		t.Fatalf("ResolveAttr(h11) = (%d, %d, %v)", dim, level, err)
	}
	if _, _, err := s.ResolveAttr("zzz"); err == nil {
		t.Fatal("ResolveAttr accepted unknown attribute")
	}
	amb := testSchema()
	amb.Dimensions[1].Attrs[0] = "h01"
	if _, _, err := amb.ResolveAttr("h01"); err == nil {
		t.Fatal("ResolveAttr accepted ambiguous attribute")
	}
}

func TestDimensionTableRoundtrip(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	ds := DimensionSchema{Name: "store", Key: "sid", Attrs: []string{"city", "region"}}
	dt, err := CreateDimensionTable(bp, ds)
	if err != nil {
		t.Fatalf("CreateDimensionTable: %v", err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		if err := dt.Insert(i, []string{fmt.Sprintf("city%d", i%10), fmt.Sprintf("region%d", i%3)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	rows, err := dt.NumRows()
	if err != nil || rows != n {
		t.Fatalf("NumRows = (%d, %v)", rows, err)
	}
	var next int64
	err = dt.Scan(func(key int64, attrs []string) error {
		if key != next {
			return fmt.Errorf("scan key %d, want %d", key, next)
		}
		if attrs[0] != fmt.Sprintf("city%d", key%10) || attrs[1] != fmt.Sprintf("region%d", key%3) {
			return fmt.Errorf("row %d attrs %v", key, attrs)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("scan visited %d rows", next)
	}

	// Reopen by root.
	dt2 := OpenDimensionTable(bp, ds, dt.Root())
	var row42 []string
	if err := dt2.Scan(func(k int64, attrs []string) error {
		if k == 42 {
			row42 = attrs
		}
		return nil
	}); err != nil || len(row42) == 0 || row42[0] != "city2" {
		t.Fatalf("reopened row 42 = (%v, %v)", row42, err)
	}
	if sz, err := dt2.SizeBytes(); err != nil || sz <= 0 {
		t.Fatalf("SizeBytes = (%d, %v)", sz, err)
	}
}

func TestDimensionTableInsertValidation(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 16)
	dt, err := CreateDimensionTable(bp, DimensionSchema{Name: "d", Key: "k", Attrs: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Insert(1, []string{"x", "y"}); err == nil {
		t.Fatal("Insert with wrong attr count succeeded")
	}
	if _, err := CreateDimensionTable(bp, DimensionSchema{}); err == nil {
		t.Fatal("CreateDimensionTable with invalid schema succeeded")
	}
}

func TestCatalogSaveLoad(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh database: empty catalog.
	c, err := Load(bp, sb)
	if err != nil {
		t.Fatalf("Load on fresh db: %v", err)
	}
	if c.Schema != nil || len(c.DimHeaps) != 0 {
		t.Fatal("fresh catalog not empty")
	}

	c.Schema = testSchema()
	c.DimHeaps["dim0"] = 17
	c.DimHeaps["dim1"] = 29
	c.FactRoot = 99
	c.FactTuples = 1234
	c.ArrayState = 55
	c.BitmapIndexes[BitmapKey("dim0", "h02")] = 88
	if err := c.Save(bp, sb); err != nil {
		t.Fatalf("Save: %v", err)
	}

	got, err := Load(bp, sb)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Schema == nil || got.Schema.Fact.Name != "fact" {
		t.Fatal("schema lost")
	}
	if got.DimHeaps["dim1"] != 29 || got.FactRoot != 99 || got.FactTuples != 1234 ||
		got.ArrayState != 55 || got.BitmapIndexes["dim0.h02"] != 88 {
		t.Fatalf("catalog contents lost: %+v", got)
	}

	// Save again (update): root must switch to the new blob.
	got.FactTuples = 5678
	if err := got.Save(bp, sb); err != nil {
		t.Fatal(err)
	}
	again, err := Load(bp, sb)
	if err != nil || again.FactTuples != 5678 {
		t.Fatalf("updated catalog = (%+v, %v)", again, err)
	}
}

func TestCatalogOpenDimensionErrors(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 16)
	c := NewCatalog()
	if _, err := c.OpenDimension(bp, "dim0"); err == nil {
		t.Fatal("OpenDimension with no schema succeeded")
	}
	c.Schema = testSchema()
	if _, err := c.OpenDimension(bp, "nope"); err == nil {
		t.Fatal("OpenDimension of unknown dimension succeeded")
	}
	if _, err := c.OpenDimension(bp, "dim0"); err == nil {
		t.Fatal("OpenDimension with no storage succeeded")
	}
}

func TestFactCodec(t *testing.T) {
	keys := []int64{3, 1, 4, 1}
	rec := make([]byte, FactRecordSize(4))
	if err := EncodeFact(rec, keys, -42); err != nil {
		t.Fatalf("EncodeFact: %v", err)
	}
	got := make([]int64, 4)
	m, err := DecodeFact(rec, got)
	if err != nil || m != -42 {
		t.Fatalf("DecodeFact = (%d, %v)", m, err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("keys roundtrip = %v", got)
		}
	}
	if FactKey(rec, 2) != 4 {
		t.Fatalf("FactKey = %d", FactKey(rec, 2))
	}
	if FactMeasure(rec, 4) != -42 {
		t.Fatalf("FactMeasure = %d", FactMeasure(rec, 4))
	}
	// Errors.
	if err := EncodeFact(rec[:5], keys, 0); err == nil {
		t.Fatal("EncodeFact with short buffer succeeded")
	}
	if err := EncodeFact(rec, []int64{1, 2, 3, 1 << 40}, 0); err == nil {
		t.Fatal("EncodeFact with oversized key succeeded")
	}
	if err := EncodeFact(rec, []int64{1, 2, 3, -1}, 0); err == nil {
		t.Fatal("EncodeFact with negative key succeeded")
	}
	if _, err := DecodeFact(rec[:5], got); err == nil {
		t.Fatal("DecodeFact with short record succeeded")
	}
}
