package catalog

import (
	"fmt"
	"math"

	"repro/internal/storage"
)

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
	// Model prices the work the planner counts for each plan; measured
	// whenever the statistics are collected. Nil in statistics collected
	// before it existed: the planner then falls back to its heuristic.
	Model *CostModel `json:"model,omitempty"`
}

// CostModelVersion is the layout of CostModel this engine writes and
// reads. A catalog carrying another version is refused at open.
const CostModelVersion = 1

// CostModel is the price, in nanoseconds, of each unit of work the
// planner counts: measured on the machine and the volume the statistics
// were collected on (DESIGN §3b), so the planner minimises predicted
// time rather than pages.
type CostModel struct {
	Version int `json:"version"`
	// CellNS folds one valid cell into a cube (a scan or filter-scan).
	CellNS float64 `json:"cell_ns"`
	// ProbeNS visits one candidate cell of a selection's cross product.
	ProbeNS float64 `json:"probe_ns"`
	// TupleNS joins and aggregates one fact tuple, scanned or fetched.
	TupleNS float64 `json:"tuple_ns"`
	// WordNS ANDs, ORs, clears or scans one 64-bit bitmap word.
	WordNS float64 `json:"word_ns"`
	// PageHitNS pins and unpins one page the buffer pool holds.
	PageHitNS float64 `json:"page_hit_ns"`
	// PageMissNS reads one page from the volume into the pool.
	PageMissNS float64 `json:"page_miss_ns"`
}

// Validate refuses a model of another version or with a coefficient
// that is not a finite positive number of nanoseconds.
func (m *CostModel) Validate() error {
	if m.Version != CostModelVersion {
		return fmt.Errorf("catalog: cost model version %d, want %d", m.Version, CostModelVersion)
	}
	for _, c := range []struct {
		name string
		ns   float64
	}{
		{"cell", m.CellNS}, {"probe", m.ProbeNS}, {"tuple", m.TupleNS},
		{"word", m.WordNS}, {"page hit", m.PageHitNS}, {"page miss", m.PageMissNS},
	} {
		if !(c.ns > 0) || math.IsInf(c.ns, 0) {
			return fmt.Errorf("catalog: cost model %s coefficient %g is not a finite positive time", c.name, c.ns)
		}
	}
	return nil
}

// String renders the coefficients, as EXPLAIN prints them.
func (m *CostModel) String() string {
	return fmt.Sprintf("v%d cell=%.2fns probe=%.2fns tuple=%.2fns word=%.2fns page_hit=%.0fns page_miss=%.0fns",
		m.Version, m.CellNS, m.ProbeNS, m.TupleNS, m.WordNS, m.PageHitNS, m.PageMissNS)
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
	// Counts holds each value's bitmap statistics, one entry per value;
	// nil in statistics collected before they existed.
	Counts map[string]ValueCount `json:"counts,omitempty"`
}

// ValueCount describes one value's bitmap: how many fact tuples carry
// the value, on how many fact pages they lie — fewer than Cardenas'
// formula predicts when the load order clusters the dimension — and the
// size of its run-length encoding.
type ValueCount struct {
	Tuples    uint64 `json:"tuples"`
	FactPages int64  `json:"fact_pages"`
	Bytes     int64  `json:"bytes"`
}

// validate refuses statistics no load could have collected: a value
// count that exceeds the fact table it counts, a count list that does
// not match the index's value count, or a malformed cost model.
func (s *Stats) validate() error {
	for key, bs := range s.Bitmaps {
		if bs.Counts == nil {
			continue
		}
		if len(bs.Counts) != bs.Values {
			return fmt.Errorf("catalog: bitmap index %s counts %d values, has %d", key, len(bs.Counts), bs.Values)
		}
		for v, c := range bs.Counts {
			if c.Tuples > s.FactTuples || c.FactPages < 0 || c.FactPages > s.FactPages || c.Bytes < 0 {
				return fmt.Errorf("catalog: bitmap index %s value %q: %d tuples on %d pages of a %d-tuple, %d-page fact file",
					key, v, c.Tuples, c.FactPages, s.FactTuples, s.FactPages)
			}
		}
	}
	if s.Model != nil {
		return s.Model.Validate()
	}
	return nil
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
