// Package array implements the paper's OLAP Array ADT (§3): a chunked,
// chunk-offset-compressed n-dimensional array holding the fact data,
// together with the per-dimension structures the algorithms need —
//
//   - a B-tree per dimension mapping dimension key values to array index
//     values (§3.1),
//   - a reverse index→key table,
//   - per hierarchy attribute: a dictionary of distinct values, the
//     IndexToIndex array mapping base indices to attribute-level indices
//     (§3.4), and a B-tree from attribute value to the list of base
//     indices carrying it (the "join index" of §4.2).
//
// The ADT is built in bulk from the dimension tables and a fact stream,
// persisted as a master blob plus B-tree pages and a chunk store, and is
// immutable once built (updates build a new version — the engine's
// shadow-root commit protocol).
package array

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/storage"
)

// Level holds the per-attribute-level structures of one dimension.
type Level struct {
	Attr string
	// Dict lists distinct attribute values in level-index order: the
	// value with level index c is Dict[c].
	Dict []string
	// I2I is the IndexToIndex array: I2I[baseIndex] = level index of
	// that member's attribute value.
	I2I []int32

	codes    map[string]int32 // value -> level index
	attrTree *btree.Tree      // level index -> base indices carrying it
}

// NumDistinct returns the number of distinct values at this level.
func (l *Level) NumDistinct() int { return len(l.Dict) }

// Code returns the level index of value.
func (l *Level) Code(value string) (int32, bool) {
	c, ok := l.codes[value]
	return c, ok
}

// IndexList returns the sorted base-index list for the given attribute
// value, via the level's B-tree — the paper's "join index for the
// selected value" (§4.2) — and the B-tree pages the lookup pinned. A
// value not in the dictionary yields an empty list and looks nothing
// up.
func (l *Level) IndexList(value string) ([]int, int, error) {
	code, ok := l.codes[value]
	if !ok {
		return nil, 0, nil
	}
	var out []int
	pages, err := l.attrTree.SearchPages(int64(code), func(v uint64) error {
		out = append(out, int(v))
		return nil
	})
	return out, pages, err
}

// Dimension holds the per-dimension state of the ADT.
type Dimension struct {
	Name string
	// Keys maps array index -> dimension key (the reverse of the B-tree).
	Keys []int64
	// Levels holds hierarchy attribute structures, finest first.
	Levels []*Level

	keyTree *btree.Tree // dimension key -> array index
}

// Size returns the dimension's member count (= array dimension size).
func (d *Dimension) Size() int { return len(d.Keys) }

// IndexOf maps a dimension key to its array index through the B-tree.
func (d *Dimension) IndexOf(key int64) (int, bool, error) {
	v, ok, err := d.keyTree.SearchFirst(key)
	return int(v), ok, err
}

// IndexRange returns, ascending, the array indexes of the keys in
// [lo, hi], through the B-tree. Indexes follow load order, not key
// order, so a key range is an index set, not an index range.
func (d *Dimension) IndexRange(lo, hi int64) ([]int, error) {
	var out []int
	err := d.keyTree.AscendRange(lo, hi, func(_ int64, v uint64) error {
		out = append(out, int(v))
		return nil
	})
	slices.Sort(out)
	return out, err
}

// Array is an instance of the OLAP Array ADT.
type Array struct {
	bp         *storage.BufferPool
	store      *chunk.Store
	dims       []*Dimension
	state      storage.LOBRef
	statePages int // the master blob's extent
}

// Store exposes the underlying chunk store. It is immutable: read its
// chunks through a chunk.Reader (Store().Reader), one per goroutine.
func (a *Array) Store() *chunk.Store { return a.store }

// Geometry exposes the chunked-array geometry.
func (a *Array) Geometry() *chunk.Geometry { return a.store.Geometry() }

// Dims returns the per-dimension state, in dimension order.
func (a *Array) Dims() []*Dimension { return a.dims }

// NumDims returns the array dimensionality.
func (a *Array) NumDims() int { return len(a.dims) }

// State returns the master blob reference identifying this array; store
// it in the catalog to reopen the array later.
func (a *Array) State() storage.LOBRef { return a.state }

// NumValidCells reports the number of valid cells (fact tuples).
func (a *Array) NumValidCells() int64 { return a.store.NumValidCells() }

// FactSource yields the fact tuples to load: each Next call returns the
// per-dimension keys and the measure, with ok=false at end of stream.
type FactSource interface {
	Next() (keys []int64, measure int64, ok bool, err error)
}

// BuildConfig controls array construction.
type BuildConfig struct {
	// ChunkShape is the tile shape; nil selects chunk.DefaultChunkShape.
	ChunkShape []int
	// Codec forces one compression codec for every chunk; nil selects
	// adaptive mode, where the builder trial-sizes each chunk and tags it
	// with the smallest of the paper's chunk-offset compression, the
	// difference-sequence codec, and the dense codec.
	Codec chunk.Codec
}

// Build constructs the ADT from the dimension tables and a fact stream,
// persists it, and returns it. Dimension members receive array indices in
// table-scan order; attribute values receive level indices in first-seen
// order.
func Build(bp *storage.BufferPool, dims []*catalog.DimensionTable, facts FactSource, cfg BuildConfig) (*Array, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("array: no dimensions")
	}
	a := &Array{bp: bp}

	// Phase 1: dimension structures.
	keyMaps := make([]map[int64]int, len(dims)) // fast key->index for the load
	for i, dt := range dims {
		d := &Dimension{Name: dt.Schema.Name}
		keyTree, err := btree.Create(bp)
		if err != nil {
			return nil, err
		}
		d.keyTree = keyTree
		for _, attr := range dt.Schema.Attrs {
			d.Levels = append(d.Levels, &Level{Attr: attr, codes: make(map[string]int32)})
		}
		keyMaps[i] = make(map[int64]int)
		err = dt.Scan(func(key int64, attrs []string) error {
			if _, dup := keyMaps[i][key]; dup {
				return fmt.Errorf("array: dimension %s has duplicate key %d", d.Name, key)
			}
			idx := len(d.Keys)
			keyMaps[i][key] = idx
			d.Keys = append(d.Keys, key)
			if err := keyTree.Insert(key, uint64(idx)); err != nil {
				return err
			}
			for li, l := range d.Levels {
				code, ok := l.codes[attrs[li]]
				if !ok {
					code = int32(len(l.Dict))
					l.codes[attrs[li]] = code
					l.Dict = append(l.Dict, attrs[li])
				}
				l.I2I = append(l.I2I, code)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(d.Keys) == 0 {
			return nil, fmt.Errorf("array: dimension %s is empty", d.Name)
		}
		// Attribute-level B-trees: level index -> base index list.
		for _, l := range d.Levels {
			at, err := btree.Create(bp)
			if err != nil {
				return nil, err
			}
			l.attrTree = at
			for base, code := range l.I2I {
				if err := at.Insert(int64(code), uint64(base)); err != nil {
					return nil, err
				}
			}
		}
		a.dims = append(a.dims, d)
	}

	// Phase 2: the chunked array.
	sizes := make([]int, len(a.dims))
	for i, d := range a.dims {
		sizes[i] = d.Size()
	}
	shape := cfg.ChunkShape
	if shape == nil {
		shape = chunk.DefaultChunkShape(sizes)
	}
	geom, err := chunk.NewGeometry(sizes, shape)
	if err != nil {
		return nil, err
	}
	builder := chunk.NewBuilder(geom, cfg.Codec)
	coords := make([]int, len(a.dims))
	for {
		keys, measure, ok, err := facts.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(keys) != len(a.dims) {
			return nil, fmt.Errorf("array: fact with %d keys for %d dimensions", len(keys), len(a.dims))
		}
		for i, k := range keys {
			idx, ok := keyMaps[i][k]
			if !ok {
				return nil, fmt.Errorf("array: fact references unknown %s key %d", a.dims[i].Name, k)
			}
			coords[i] = idx
		}
		if err := builder.Add(coords, measure); err != nil {
			return nil, err
		}
	}
	store, err := builder.Write(bp)
	if err != nil {
		return nil, err
	}
	a.store = store

	// Persist the master blob.
	ref, pages, err := storage.NewLOBStore(bp).Write(a.marshalState())
	if err != nil {
		return nil, err
	}
	a.state, a.statePages = ref, pages
	return a, nil
}

// marshalState serializes everything needed to reopen the array.
func (a *Array) marshalState() []byte {
	out := binary.AppendUvarint(nil, uint64(a.store.Meta().First))
	out = binary.AppendUvarint(out, uint64(len(a.dims)))
	for _, d := range a.dims {
		out = appendString(out, d.Name)
		out = binary.AppendUvarint(out, uint64(d.keyTree.Root()))
		out = binary.AppendUvarint(out, uint64(len(d.Keys)))
		for _, k := range d.Keys {
			out = binary.AppendVarint(out, k)
		}
		out = binary.AppendUvarint(out, uint64(len(d.Levels)))
		for _, l := range d.Levels {
			out = appendString(out, l.Attr)
			out = binary.AppendUvarint(out, uint64(l.attrTree.Root()))
			out = binary.AppendUvarint(out, uint64(len(l.Dict)))
			for _, v := range l.Dict {
				out = appendString(out, v)
			}
			for _, c := range l.I2I {
				out = binary.AppendUvarint(out, uint64(c))
			}
		}
	}
	return out
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// reader is a cursor over the state blob.
type reader struct {
	data []byte
	err  error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(r.data)
	if sz <= 0 {
		r.err = fmt.Errorf("array: corrupt state blob")
		return 0
	}
	r.data = r.data[sz:]
	return v
}

// count reads a count of items that take at least a byte each, so one
// larger than the bytes left is corrupt, not a request for a huge slice.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.data)) {
		r.err = fmt.Errorf("array: corrupt state blob (count %d, %d bytes left)", n, len(r.data))
		return 0
	}
	return int(n)
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, sz := binary.Varint(r.data)
	if sz <= 0 {
		r.err = fmt.Errorf("array: corrupt state blob")
		return 0
	}
	r.data = r.data[sz:]
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.data)) < n {
		r.err = fmt.Errorf("array: corrupt state string")
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// Open loads an array from its master blob.
func Open(bp *storage.BufferPool, state storage.LOBRef) (*Array, error) {
	data, err := storage.NewLOBStore(bp).Read(state)
	if err != nil {
		return nil, err
	}
	r := &reader{data: data}
	a := &Array{bp: bp, state: state, statePages: storage.BlobPages(len(data))}
	storeMeta := storage.PageID(r.uvarint())
	nDims := r.count()
	for i := 0; i < nDims && r.err == nil; i++ {
		d := &Dimension{Name: r.str()}
		d.keyTree = btree.Open(bp, storage.PageID(r.uvarint()))
		nKeys := r.count()
		d.Keys = make([]int64, nKeys)
		for k := range d.Keys {
			d.Keys[k] = r.varint()
		}
		nLevels := r.count()
		for li := 0; li < nLevels && r.err == nil; li++ {
			l := &Level{Attr: r.str(), codes: make(map[string]int32)}
			l.attrTree = btree.Open(bp, storage.PageID(r.uvarint()))
			nDict := r.count()
			l.Dict = make([]string, nDict)
			for c := range l.Dict {
				l.Dict[c] = r.str()
				l.codes[l.Dict[c]] = int32(c)
			}
			l.I2I = make([]int32, nKeys)
			for b := range l.I2I {
				l.I2I[b] = int32(r.uvarint())
			}
			d.Levels = append(d.Levels, l)
		}
		a.dims = append(a.dims, d)
	}
	if r.err != nil {
		return nil, r.err
	}
	store, err := chunk.Open(bp, storage.LOBRef{First: storeMeta})
	if err != nil {
		return nil, err
	}
	a.store = store
	if store.Geometry().NumDims() != len(a.dims) {
		return nil, fmt.Errorf("array: store has %d dims, state has %d",
			store.Geometry().NumDims(), len(a.dims))
	}
	return a, nil
}

// Pages hands mark every page of the array: its master blob, each
// dimension's key B-tree and attribute B-trees, and the chunk store.
func (a *Array) Pages(mark func(first storage.PageID, n int) error) error {
	if err := mark(a.state.First, a.statePages); err != nil {
		return err
	}
	for _, d := range a.dims {
		if err := d.keyTree.Pages(mark); err != nil {
			return fmt.Errorf("array: dimension %s: %w", d.Name, err)
		}
		for _, l := range d.Levels {
			if err := l.attrTree.Pages(mark); err != nil {
				return fmt.Errorf("array: %s.%s: %w", d.Name, l.Attr, err)
			}
		}
	}
	return a.store.Pages(mark)
}

// Superseded returns the extents of a that next, made from a by
// ApplyChunkChanges, no longer references: a's master blob, its chunk
// store's directory blob and every chunk the update rewrote. Both share
// the rest, B-trees included.
func (a *Array) Superseded(next *Array) []storage.Extent {
	var out []storage.Extent
	if next.state != a.state {
		out = append(out, storage.Extent{First: a.state.First, N: a.statePages})
	}
	return append(out, a.store.Superseded(next.store)...)
}

// Get returns the measure at the given dimension keys under v, resolving
// each key through the dimension B-trees (the ADT's Read function,
// §3.5). ok is false when any key is unknown or the cell is invalid.
func (a *Array) Get(v chunk.View, keys []int64) (int64, bool, error) {
	if len(keys) != len(a.dims) {
		return 0, false, fmt.Errorf("array: %d keys for %d dimensions", len(keys), len(a.dims))
	}
	var small [8]int // a point read of a cube of usual rank allocates nothing
	coords := small[:]
	if len(keys) > len(small) {
		coords = make([]int, len(keys))
	}
	coords = coords[:len(keys)]
	for i, k := range keys {
		idx, ok, err := a.dims[i].IndexOf(k)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return 0, false, nil
		}
		coords[i] = idx
	}
	r := a.store.Reader(v, nil)
	return r.Get(coords)
}

// SizeBytes reports the on-disk footprint of the ADT: the chunk store,
// the master blob, and all B-tree pages.
func (a *Array) SizeBytes() (int64, error) {
	var pages int64
	err := a.Pages(func(_ storage.PageID, n int) error {
		pages += int64(n)
		return nil
	})
	return pages * storage.PageSize, err
}
