package catalog

import "repro/internal/storage"

// Stats are the planner statistics collected while the physical objects
// are loaded and built (LoadFacts, BuildArray, BuildBitmapIndexes). They
// are persisted inside the catalog blob, so a reopened database plans
// with the same numbers it was loaded with. A nil Stats (catalogs
// written before CatalogVersion 2, or a database inspected mid-load)
// sends the planner to its heuristic fallback.
type Stats struct {
	// CollectedUnix is the Unix time of the last base-statistics
	// collection, letting operators judge staleness (DB.Stats reports
	// it as an age). Zero in catalogs written before it existed.
	CollectedUnix int64 `json:"collected_unix,omitempty"`
	// FactTuples is the fact cardinality.
	FactTuples uint64 `json:"fact_tuples,omitempty"`
	// FactPages is the fact file footprint in pages.
	FactPages int64 `json:"fact_pages,omitempty"`
	// Dimensions holds per-dimension statistics in schema order.
	Dimensions []DimensionStats `json:"dimensions,omitempty"`
	// Array describes the OLAP array; nil until one is built.
	Array *ArrayStats `json:"array,omitempty"`
	// Bitmaps maps BitmapKey(dim, attr) to that index's statistics;
	// nil until indexes are built.
	Bitmaps map[string]BitmapIndexStats `json:"bitmaps,omitempty"`
}

// DimensionStats describes one dimension table.
type DimensionStats struct {
	Name string `json:"name"`
	// Members is the member (row) count — the array dimension size.
	Members uint64 `json:"members"`
	// AttrDistinct is the distinct-value count per hierarchy attribute,
	// in schema attribute order. |selected values| / AttrDistinct[level]
	// is the planner's per-selection selectivity estimate.
	AttrDistinct []uint64 `json:"attr_distinct,omitempty"`
	// Pages is the heap footprint in pages.
	Pages int64 `json:"pages,omitempty"`
}

// ArrayStats describes the chunked OLAP array.
type ArrayStats struct {
	DimSizes   []int `json:"dim_sizes"`
	ChunkShape []int `json:"chunk_shape"`
	NumChunks  int   `json:"num_chunks"`
	// ValidCells is the stored cell count (= fact tuples at build time).
	ValidCells int64 `json:"valid_cells"`
	// EncodedBytes is the compressed chunk payload — what a full scan
	// actually decodes, before per-chunk page rounding.
	EncodedBytes int64 `json:"encoded_bytes"`
	// Pages is the chunk store footprint in pages.
	Pages int64 `json:"pages"`
	// Codec is the store's codec mode: a forced codec name, or
	// "adaptive" for per-chunk selection. Empty in stats collected
	// before codec modes existed.
	Codec string `json:"codec,omitempty"`
	// Codecs breaks the encoded payload down by chunk codec; nil in
	// older stats.
	Codecs map[string]CodecStats `json:"codecs,omitempty"`
}

// CodecStats describes the chunks one codec encodes within a store.
type CodecStats struct {
	// Chunks is the number of non-empty chunks tagged with this codec.
	Chunks int64 `json:"chunks"`
	// EncodedBytes is their combined compressed payload.
	EncodedBytes int64 `json:"encoded_bytes"`
}

// BitmapIndexStats describes one bitmap join index.
type BitmapIndexStats struct {
	// Values is the number of distinct attribute values (= bitmaps).
	Values int `json:"values"`
	// Pages is the index blob footprint in pages.
	Pages int64 `json:"pages"`
}

// Dim returns the statistics of the named dimension, or nil.
func (s *Stats) Dim(name string) *DimensionStats {
	for i := range s.Dimensions {
		if s.Dimensions[i].Name == name {
			return &s.Dimensions[i]
		}
	}
	return nil
}

// AttrDistinctOf returns the distinct count of (dimension index, level),
// falling back to ok=false when the statistics don't cover it.
func (s *Stats) AttrDistinctOf(dim, level int) (uint64, bool) {
	if dim < 0 || dim >= len(s.Dimensions) {
		return 0, false
	}
	d := &s.Dimensions[dim]
	if level < 0 || level >= len(d.AttrDistinct) || d.AttrDistinct[level] == 0 {
		return 0, false
	}
	return d.AttrDistinct[level], true
}

// DimensionPages totals the dimension heap footprints.
func (s *Stats) DimensionPages() int64 {
	var n int64
	for i := range s.Dimensions {
		n += s.Dimensions[i].Pages
	}
	return n
}

// PagesOf converts a byte size to whole pages (rounding up).
func PagesOf(bytes int64) int64 {
	return (bytes + storage.PageSize - 1) / storage.PageSize
}
