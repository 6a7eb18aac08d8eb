package catalog

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
)

func testStats() *Stats {
	return &Stats{
		FactTuples: 640000,
		FactPages:  4650,
		Dimensions: []DimensionStats{
			{Name: "dim0", Members: 40, AttrDistinct: []uint64{10, 4}, Pages: 1},
			{Name: "dim1", Members: 100, AttrDistinct: []uint64{10, 10}, Pages: 2},
		},
		Array: &ArrayStats{
			DimSizes:     []int{40, 100},
			ChunkShape:   []int{20, 10},
			NumChunks:    20,
			ValidCells:   640000,
			EncodedBytes: 6 << 20,
			Pages:        800,
		},
		Bitmaps: map[string]BitmapIndexStats{
			BitmapKey("dim0", "h02"): {Values: 4, Pages: 40},
			BitmapKey("dim1", "h12"): {Values: 2, Pages: 20, Counts: map[string]ValueCount{
				"AA0": {Tuples: 320000, FactPages: 4650, Bytes: 80000},
				"AA1": {Tuples: 320000, FactPages: 2325, Bytes: 40},
			}},
		},
		Model: &CostModel{Version: CostModelVersion, CellNS: 4, ProbeNS: 4, TupleNS: 40,
			WordNS: 1, PageHitNS: 60, PageMissNS: 900},
	}
}

func TestStatsRoundtrip(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	c.Schema = testSchema()
	c.Stats = testStats()
	if err := c.Save(bp, sb); err != nil {
		t.Fatal(err)
	}
	if c.Version != CatalogVersion {
		t.Fatalf("Save stamped version %d, want %d", c.Version, CatalogVersion)
	}

	got, err := Load(bp, sb)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != CatalogVersion {
		t.Fatalf("loaded version %d, want %d", got.Version, CatalogVersion)
	}
	st := got.Stats
	if st == nil {
		t.Fatal("stats lost across save/load")
	}
	if st.FactTuples != 640000 || st.FactPages != 4650 {
		t.Fatalf("fact stats = %+v", st)
	}
	if len(st.Dimensions) != 2 || st.Dimensions[1].AttrDistinct[1] != 10 {
		t.Fatalf("dimension stats = %+v", st.Dimensions)
	}
	if st.Array == nil || st.Array.EncodedBytes != 6<<20 || st.Array.NumChunks != 20 {
		t.Fatalf("array stats = %+v", st.Array)
	}
	if bs := st.Bitmaps[BitmapKey("dim0", "h02")]; bs.Values != 4 || bs.Pages != 40 {
		t.Fatalf("bitmap stats = %+v", st.Bitmaps)
	}
}

// TestLegacyCatalogDecodes: blobs written before CatalogVersion 2 carry
// no version field and no statistics; they must load with nil Stats.
func TestLegacyCatalogDecodes(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"schema":{"fact":{"name":"fact","dims":["dim0"],"measure":"volume"},` +
		`"dimensions":[{"name":"dim0","key":"d0","attrs":["h01","h02"]}]},` +
		`"fact_root":99,"fact_tuples":1234}`
	ref, _, err := storage.NewLOBStore(bp).Write([]byte(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Commit(ref.First); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bp, sb)
	if err != nil {
		t.Fatalf("legacy catalog rejected: %v", err)
	}
	if c.Version != 0 || c.Stats != nil {
		t.Fatalf("legacy catalog = version %d stats %+v", c.Version, c.Stats)
	}
	if c.FactRoot != 99 || c.FactTuples != 1234 || c.Schema == nil {
		t.Fatalf("legacy contents lost: %+v", c)
	}
}

// TestNewerCatalogRejected: a blob from a future engine version must
// fail loudly instead of being silently misread.
func TestNewerCatalogRejected(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&Catalog{Version: CatalogVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := storage.NewLOBStore(bp).Write(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Commit(ref.First); err != nil {
		t.Fatal(err)
	}
	_, err = Load(bp, sb)
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future catalog loaded: %v", err)
	}
}

func TestStatsLookups(t *testing.T) {
	st := testStats()
	if st.Dim("dim1") == nil || st.Dim("dim1").Members != 100 {
		t.Fatal("Dim lookup wrong")
	}
	if st.Dim("nope") != nil {
		t.Fatal("Dim of unknown dimension non-nil")
	}
	if d, ok := st.AttrDistinctOf(0, 1); !ok || d != 4 {
		t.Fatalf("AttrDistinctOf(0,1) = (%d, %v)", d, ok)
	}
	for _, bad := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 5}} {
		if _, ok := st.AttrDistinctOf(bad[0], bad[1]); ok {
			t.Errorf("AttrDistinctOf%v succeeded", bad)
		}
	}
	if st.DimensionPages() != 3 {
		t.Fatalf("DimensionPages = %d", st.DimensionPages())
	}
	if PagesOf(0) != 0 || PagesOf(1) != 1 ||
		PagesOf(storage.PageSize) != 1 || PagesOf(storage.PageSize+1) != 2 {
		t.Fatal("PagesOf rounding wrong")
	}
}

// TestStatsRefusedOnLoad: a catalog whose statistics no load could have
// collected — a value counted on more tuples or pages than the fact
// table has, a count list that is not the index's values, a cost model
// of another version or with a coefficient that is not a finite positive
// time — is refused at open, as other malformed fields are.
func TestStatsRefusedOnLoad(t *testing.T) {
	key := BitmapKey("dim1", "h12")
	for _, c := range []struct {
		name  string
		spoil func(st *Stats)
	}{
		{"tuples past the fact table", func(st *Stats) {
			st.Bitmaps[key].Counts["AA0"] = ValueCount{Tuples: st.FactTuples + 1}
		}},
		{"pages past the fact file", func(st *Stats) {
			st.Bitmaps[key].Counts["AA1"] = ValueCount{Tuples: 1, FactPages: st.FactPages + 1}
		}},
		{"a count list shorter than the values", func(st *Stats) { delete(st.Bitmaps[key].Counts, "AA1") }},
		{"an unknown model version", func(st *Stats) { st.Model.Version = CostModelVersion + 1 }},
		{"a zero coefficient", func(st *Stats) { st.Model.WordNS = 0 }},
		{"a negative coefficient", func(st *Stats) { st.Model.PageMissNS = -1 }},
		{"an infinite coefficient", func(st *Stats) { st.Model.CellNS = math.Inf(1) }},
		{"a NaN coefficient", func(st *Stats) { st.Model.ProbeNS = math.NaN() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := testStats()
			c.spoil(st)
			if err := st.validate(); err == nil {
				t.Fatal("validate accepted the statistics")
			}
			if math.IsInf(st.Model.CellNS, 0) || math.IsNaN(st.Model.ProbeNS) {
				return // JSON cannot carry them; validate is what stands guard
			}
			bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
			sb, err := storage.OpenSuperblock(bp)
			if err != nil {
				t.Fatal(err)
			}
			cat := NewCatalog()
			cat.Schema, cat.Stats = testSchema(), st
			if err := cat.Save(bp, sb); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bp, sb); err == nil {
				t.Fatal("Load accepted the catalog")
			}
		})
	}
	if err := testStats().validate(); err != nil {
		t.Fatalf("the well-formed statistics: %v", err)
	}
}
