// Package exec ties the engine together: bulk operations that create and
// load the physical objects (dimension tables, fact file, OLAP array,
// bitmap indices) recorded in the catalog, and an executor that plans and
// runs compiled consolidation queries with timing and I/O
// instrumentation.
package exec

import (
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// CreateSchema records the star schema in the catalog and creates the
// (empty) dimension tables. The caller persists the catalog afterwards.
func CreateSchema(bp *storage.BufferPool, cat *catalog.Catalog, schema *catalog.StarSchema) error {
	if cat.Schema != nil {
		return fmt.Errorf("exec: schema already defined")
	}
	if err := schema.Validate(); err != nil {
		return err
	}
	for i := range schema.Dimensions {
		dt, err := catalog.CreateDimensionTable(bp, schema.Dimensions[i])
		if err != nil {
			return err
		}
		cat.DimHeaps[schema.Dimensions[i].Name] = uint64(dt.Root())
	}
	cat.Schema = schema
	return nil
}

// OpenDimensions opens every dimension table in schema order.
func OpenDimensions(bp *storage.BufferPool, cat *catalog.Catalog) ([]*catalog.DimensionTable, error) {
	if cat.Schema == nil {
		return nil, fmt.Errorf("exec: no schema defined")
	}
	out := make([]*catalog.DimensionTable, 0, cat.Schema.NumDims())
	for i := range cat.Schema.Dimensions {
		dt, err := cat.OpenDimension(bp, cat.Schema.Dimensions[i].Name)
		if err != nil {
			return nil, err
		}
		out = append(out, dt)
	}
	return out, nil
}

// LoadDimensionRow appends one member row to the named dimension. The
// first row after a commit moves the table to fresh pages (heap.Insert),
// so the catalog takes its root again.
func LoadDimensionRow(bp *storage.BufferPool, cat *catalog.Catalog, dim string, key int64, attrs []string) error {
	dt, err := cat.OpenDimension(bp, dim)
	if err != nil {
		return err
	}
	err = dt.Insert(key, attrs)
	cat.DimHeaps[dim] = uint64(dt.Root())
	return err
}

// FactSource is the pull cursor bulk fact loads consume; it matches
// array.FactSource.
type FactSource = array.FactSource

// LoadFacts creates the fact file (§4.4's extent-based structure) and
// appends every tuple from src. The fact file must not already exist —
// fact loads are whole-table builds, consistent with the engine's
// shadow-root commit protocol.
func LoadFacts(bp *storage.BufferPool, cat *catalog.Catalog, src FactSource) error {
	if cat.Schema == nil {
		return fmt.Errorf("exec: no schema defined")
	}
	if cat.FactRoot != 0 {
		return fmt.Errorf("exec: fact table already loaded")
	}
	n := cat.Schema.NumDims()
	ff, err := factfile.Create(bp, catalog.FactRecordSize(n), 0)
	if err != nil {
		return err
	}
	rec := make([]byte, catalog.FactRecordSize(n))
	for {
		keys, measure, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(keys) != n {
			return fmt.Errorf("exec: fact with %d keys for %d dimensions", len(keys), n)
		}
		if err := catalog.EncodeFact(rec, keys, measure); err != nil {
			return err
		}
		if _, err := ff.Append(rec); err != nil {
			return err
		}
	}
	cat.FactRoot = uint64(ff.Root())
	cat.FactTuples = ff.NumTuples()
	return refreshBaseStats(bp, cat)
}

// refreshBaseStats (re)collects the planner statistics for the
// dimension tables and the fact file. It runs after every bulk load and
// build, so dimensions loaded in any order relative to the facts are
// picked up; the array and bitmap sections are refreshed by their own
// builds and survive untouched here.
func refreshBaseStats(bp *storage.BufferPool, cat *catalog.Catalog) error {
	st := cat.Stats
	if st == nil {
		st = &catalog.Stats{}
		cat.Stats = st
	}
	dims, err := OpenDimensions(bp, cat)
	if err != nil {
		return err
	}
	st.Dimensions = st.Dimensions[:0]
	for _, dt := range dims {
		ds := catalog.DimensionStats{
			Name:         dt.Schema.Name,
			AttrDistinct: make([]uint64, len(dt.Schema.Attrs)),
		}
		distinct := make([]map[string]struct{}, len(dt.Schema.Attrs))
		for i := range distinct {
			distinct[i] = make(map[string]struct{})
		}
		err := dt.Scan(func(key int64, attrs []string) error {
			ds.Members++
			for i, v := range attrs {
				distinct[i][v] = struct{}{}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i := range distinct {
			ds.AttrDistinct[i] = uint64(len(distinct[i]))
		}
		sz, err := dt.SizeBytes()
		if err != nil {
			return err
		}
		ds.Pages = catalog.PagesOf(sz)
		st.Dimensions = append(st.Dimensions, ds)
	}
	if cat.FactRoot != 0 {
		ff, err := OpenFactFile(bp, cat)
		if err != nil {
			return err
		}
		st.FactTuples = ff.NumTuples()
		st.FactPages = catalog.PagesOf(ff.SizeBytes())
		if m, err := measureCostModel(bp, ff.Root()); err == nil {
			st.Model = m
		}
	}
	st.CollectedUnix = time.Now().Unix()
	return nil
}

// measureCostModel prices the planner's units of work on this machine
// and this volume (DESIGN §3b): the engines' inner loops timed on
// synthetic data, and the pool's page hit and miss timed on page (the
// fact file's header). A volume that cannot be read leaves the model
// the statistics had.
func measureCostModel(bp *storage.BufferPool, page storage.PageID) (*catalog.CostModel, error) {
	hit, miss, err := bp.MeasurePageCosts(page)
	if err != nil {
		return nil, err
	}
	k := core.MeasureKernelCosts()
	return &catalog.CostModel{
		Version: catalog.CostModelVersion,
		CellNS:  k.CellNS, ProbeNS: k.ProbeNS, TupleNS: k.TupleNS, WordNS: k.WordNS,
		PageHitNS: hit, PageMissNS: miss,
	}, nil
}

// refreshArrayStats recollects the array section of the planner
// statistics from the catalog's current array, after BuildArray
// replaces it.
func refreshArrayStats(bp *storage.BufferPool, cat *catalog.Catalog) error {
	arr, err := OpenArray(bp, cat)
	if err != nil {
		return err
	}
	if cat.Stats == nil {
		if err := refreshBaseStats(bp, cat); err != nil {
			return err
		}
	}
	g := arr.Geometry()
	store := arr.Store()
	codecs := make(map[string]catalog.CodecStats)
	for name, st := range store.CodecStats() {
		codecs[name] = catalog.CodecStats{Chunks: st.Chunks, EncodedBytes: st.EncodedBytes}
	}
	cat.Stats.Array = &catalog.ArrayStats{
		DimSizes:     g.Dims(),
		ChunkShape:   g.ChunkShape(),
		NumChunks:    g.NumChunks(),
		ValidCells:   arr.NumValidCells(),
		EncodedBytes: store.EncodedBytes(),
		Pages:        catalog.PagesOf(store.SizeBytes()),
		Codec:        store.CodecName(),
		Codecs:       codecs,
	}
	return nil
}

// OpenFactFile opens the loaded fact file.
func OpenFactFile(bp *storage.BufferPool, cat *catalog.Catalog) (*factfile.File, error) {
	if cat.FactRoot == 0 {
		return nil, fmt.Errorf("exec: fact table not loaded")
	}
	return factfile.Open(bp, storage.PageID(cat.FactRoot))
}

// factFileSource is a pull cursor over a fact file, used to feed the
// array build from the relational copy of the data.
type factFileSource struct {
	ff   *factfile.File
	pos  uint64
	rec  []byte
	keys []int64
}

func newFactFileSource(ff *factfile.File, nDims int) *factFileSource {
	return &factFileSource{
		ff:   ff,
		rec:  make([]byte, ff.RecordSize()),
		keys: make([]int64, nDims),
	}
}

// Next implements FactSource.
func (s *factFileSource) Next() ([]int64, int64, bool, error) {
	if s.pos >= s.ff.NumTuples() {
		return nil, 0, false, nil
	}
	if _, err := s.ff.Get(s.pos, s.rec); err != nil {
		return nil, 0, false, err
	}
	s.pos++
	measure, err := catalog.DecodeFact(s.rec, s.keys)
	if err != nil {
		return nil, 0, false, err
	}
	return s.keys, measure, true, nil
}

// ArrayBuildConfig mirrors array.BuildConfig with a codec name instead of
// a codec value, for use from configuration surfaces.
type ArrayBuildConfig struct {
	// ChunkShape overrides the default tile shape.
	ChunkShape []int
	// Codec names the chunk codec forced onto every chunk; empty or
	// "adaptive" selects per-chunk adaptive selection.
	Codec string
}

// BuildArray constructs the OLAP Array ADT from the loaded dimension
// tables and fact file, and records it in the catalog.
func BuildArray(bp *storage.BufferPool, cat *catalog.Catalog, cfg ArrayBuildConfig) error {
	dims, err := OpenDimensions(bp, cat)
	if err != nil {
		return err
	}
	ff, err := OpenFactFile(bp, cat)
	if err != nil {
		return err
	}
	var codec chunk.Codec
	if cfg.Codec != "" && cfg.Codec != chunk.CodecAdaptive {
		codec, err = chunk.CodecByName(cfg.Codec)
		if err != nil {
			return err
		}
	}
	arr, err := array.Build(bp, dims, newFactFileSource(ff, len(dims)), array.BuildConfig{
		ChunkShape: cfg.ChunkShape,
		Codec:      codec,
	})
	if err != nil {
		return err
	}
	cat.ArrayState = uint64(arr.State().First)
	if err := refreshBaseStats(bp, cat); err != nil {
		return err
	}
	return refreshArrayStats(bp, cat)
}

// OpenArray opens the OLAP Array recorded in the catalog.
func OpenArray(bp *storage.BufferPool, cat *catalog.Catalog) (*array.Array, error) {
	return openArray(bp, cat.ArrayState)
}

// openArray opens the OLAP Array whose master blob starts at state.
func openArray(bp *storage.BufferPool, state uint64) (*array.Array, error) {
	if state == 0 {
		return nil, fmt.Errorf("exec: OLAP array not built")
	}
	return array.Open(bp, storage.LOBRef{First: storage.PageID(state)})
}

// BuildBitmapIndexes builds the §4.4 join bitmap indices for every
// hierarchy attribute of every dimension and records their blobs in the
// catalog.
func BuildBitmapIndexes(bp *storage.BufferPool, cat *catalog.Catalog) error {
	dims, err := OpenDimensions(bp, cat)
	if err != nil {
		return err
	}
	ff, err := OpenFactFile(bp, cat)
	if err != nil {
		return err
	}
	indexes, err := core.BuildBitmapIndexes(ff, dims)
	if err != nil {
		return err
	}
	if err := refreshBaseStats(bp, cat); err != nil {
		return err
	}
	cat.Stats.Bitmaps = make(map[string]catalog.BitmapIndexStats, len(indexes))
	lob := storage.NewLOBStore(bp)
	for key, ix := range indexes {
		ref, pages, err := ix.Save(lob)
		if err != nil {
			return err
		}
		cat.BitmapIndexes[key] = uint64(ref.First)
		counts := make(map[string]catalog.ValueCount, ix.NumValues())
		for _, v := range ix.Values() {
			bm, _ := ix.Get(v)
			counts[v] = catalog.ValueCount{
				Tuples:    bm.Count(),
				FactPages: bm.PagesTouched(uint64(ff.TuplesPerPage())),
				Bytes:     int64(bm.EncodedLen()),
			}
		}
		cat.Stats.Bitmaps[key] = catalog.BitmapIndexStats{
			Values: ix.NumValues(),
			Pages:  int64(pages),
			Counts: counts,
		}
	}
	return nil
}
