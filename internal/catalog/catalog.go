package catalog

import (
	"encoding/json"
	"fmt"

	"repro/internal/heap"
	"repro/internal/storage"
)

// CatalogVersion is the current catalog layout version. Version 2 added
// persisted planner statistics (Stats). Older blobs (version 0/1, which
// never wrote a version field) still decode — their Stats are simply
// nil — while blobs from a newer engine are rejected instead of being
// silently misread.
const CatalogVersion = 2

// Catalog is the persistent database catalog: the star schema plus the
// storage roots of every physical object. It is serialized as JSON into a
// blob that the superblock's commit slot names; updates write a new blob
// and commit by switching the slot to it (storage.Superblock.Commit).
type Catalog struct {
	// Version is the layout version the blob was written with; see
	// CatalogVersion.
	Version int `json:"version,omitempty"`

	Schema *StarSchema `json:"schema,omitempty"`

	// DimHeaps maps dimension name to its heap-file root page.
	DimHeaps map[string]uint64 `json:"dim_heaps,omitempty"`

	// FactRoot is the fact file's header page; 0 means not loaded.
	FactRoot uint64 `json:"fact_root,omitempty"`

	// FactTuples caches the fact cardinality for planning.
	FactTuples uint64 `json:"fact_tuples,omitempty"`

	// ArrayState is the OLAP Array ADT's master blob (its dimension
	// maps, IndexToIndex arrays, and chunk store reference); 0 means no
	// array has been built.
	ArrayState uint64 `json:"array_state,omitempty"`

	// BitmapIndexes maps "dim.attr" to the bitmap index blob.
	BitmapIndexes map[string]uint64 `json:"bitmap_indexes,omitempty"`

	// Stats are the persisted planner statistics; nil on catalogs
	// written before version 2 (the planner then falls back to
	// heuristics).
	Stats *Stats `json:"stats,omitempty"`

	// DeltaChunks is the sorted set of array chunks ever touched by
	// live ingest, persisted at compaction commits so the relational
	// engines' dirty filter survives restarts. Omitted (and ignored)
	// on databases that never ingested, so the field needs no catalog
	// version bump.
	DeltaChunks []int `json:"delta_chunks,omitempty"`
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		DimHeaps:      make(map[string]uint64),
		BitmapIndexes: make(map[string]uint64),
	}
}

// BitmapKey names a bitmap index in the catalog.
func BitmapKey(dim, attr string) string { return dim + "." + attr }

// Save serializes the catalog to a new blob and commits it: once every
// dirty page is on the volume, the superblock's next slot names it.
func (c *Catalog) Save(bp *storage.BufferPool, sb *storage.Superblock) error {
	c.Version = CatalogVersion
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("catalog: marshal: %w", err)
	}
	ref, _, err := storage.NewLOBStore(bp).Write(data)
	if err != nil {
		return fmt.Errorf("catalog: write blob: %w", err)
	}
	return sb.Commit(ref.First)
}

// Load reads the catalog the superblock's commit names; a database with
// no catalog yet yields an empty catalog.
func Load(bp *storage.BufferPool, sb *storage.Superblock) (*Catalog, error) {
	root, ok := sb.Catalog()
	if !ok {
		return NewCatalog(), nil
	}
	data, err := storage.NewLOBStore(bp).Read(storage.LOBRef{First: root})
	if err != nil {
		return nil, fmt.Errorf("catalog: read blob: %w", err)
	}
	c := NewCatalog()
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("catalog: unmarshal: %w", err)
	}
	if c.Version > CatalogVersion {
		return nil, fmt.Errorf("catalog: version %d is newer than this engine (max %d)",
			c.Version, CatalogVersion)
	}
	if c.Stats != nil {
		if err := c.Stats.validate(); err != nil {
			return nil, err
		}
	}
	if c.DimHeaps == nil {
		c.DimHeaps = make(map[string]uint64)
	}
	if c.BitmapIndexes == nil {
		c.BitmapIndexes = make(map[string]uint64)
	}
	return c, nil
}

// Pages hands mark what the catalog itself keeps on the volume: the
// catalog blob the superblock's commit names, and every dimension
// table's heap pages.
func (c *Catalog) Pages(bp *storage.BufferPool, sb *storage.Superblock, mark func(first storage.PageID, n int) error) error {
	root, ok := sb.Catalog()
	if !ok {
		return nil
	}
	ext, err := storage.NewLOBStore(bp).BlobExtent(storage.LOBRef{First: root})
	if err != nil {
		return fmt.Errorf("catalog: blob: %w", err)
	}
	if err := mark(ext.First, ext.N); err != nil {
		return fmt.Errorf("catalog: blob: %w", err)
	}
	for name, hdr := range c.DimHeaps {
		if err := heap.Open(bp, storage.PageID(hdr)).Pages(mark); err != nil {
			return fmt.Errorf("catalog: dimension %s: %w", name, err)
		}
	}
	return nil
}

// OpenDimension opens the named dimension table from the catalog.
func (c *Catalog) OpenDimension(bp *storage.BufferPool, name string) (*DimensionTable, error) {
	if c.Schema == nil {
		return nil, fmt.Errorf("catalog: no schema defined")
	}
	ds := c.Schema.Dim(name)
	if ds == nil {
		return nil, fmt.Errorf("catalog: unknown dimension %s", name)
	}
	root, ok := c.DimHeaps[name]
	if !ok {
		return nil, fmt.Errorf("catalog: dimension %s has no storage", name)
	}
	return OpenDimensionTable(bp, *ds, storage.PageID(root)), nil
}
