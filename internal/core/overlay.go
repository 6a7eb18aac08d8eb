package core

import (
	"context"
	"fmt"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/chunk"
)

func errDimMismatch(arr, rel int) error {
	return fmt.Errorf("core: overlay fold array has %d dims, query has %d", arr, rel)
}

// OverlayFold carries what the relational engines need to agree with
// the array engine while a delta overlay is live. Arr is an array clone
// with the query's overlay snapshot attached (reads yield base+delta
// merged); Chunks is the sorted set of chunks EVER touched by ingest —
// not just currently-dirty ones, because fact tuples falling in a
// once-touched chunk stay stale forever (compaction folds deltas into
// the array, never back into the fact file).
//
// The relational engines handle a fold in two moves: every fact tuple
// whose cell lands in a touched chunk is skipped during the scan, and
// afterwards the touched chunks are re-aggregated from the merged array
// — so the result is bit-identical to the array engine's, before and
// after any number of compactions. The skip relies on the engine's
// load-time invariant that fact tuples and valid cells are 1:1.
type OverlayFold struct {
	Arr    *array.Array
	Chunks []int
}

// dirtyFilter decides, per fact tuple, whether the tuple's cell lands
// in a delta-touched chunk. Built once per query; the maps are
// read-only afterwards, so parallel workers share the filter, each
// bringing its own coords scratch.
type dirtyFilter struct {
	geom    *chunk.Geometry
	keyPos  []map[int64]int // per dimension: key -> array index
	touched map[int]struct{}
}

// newDirtyFilter inverts the array's index->key tables. A nil or empty
// fold yields a nil filter (no per-tuple overhead).
func newDirtyFilter(fold *OverlayFold, dims []*catalog.DimensionTable) (*dirtyFilter, error) {
	if fold == nil || len(fold.Chunks) == 0 {
		return nil, nil
	}
	if fold.Arr.NumDims() != len(dims) {
		return nil, errDimMismatch(fold.Arr.NumDims(), len(dims))
	}
	adims := fold.Arr.Dims()
	df := &dirtyFilter{
		geom:    fold.Arr.Geometry(),
		keyPos:  make([]map[int64]int, len(adims)),
		touched: make(map[int]struct{}, len(fold.Chunks)),
	}
	for i, d := range adims {
		m := make(map[int64]int, len(d.Keys))
		for idx, k := range d.Keys {
			m[k] = idx
		}
		df.keyPos[i] = m
	}
	for _, cn := range fold.Chunks {
		df.touched[cn] = struct{}{}
	}
	return df, nil
}

// dirty reports whether the tuple with the given dimension keys falls
// in a touched chunk, using coords as scratch.
func (df *dirtyFilter) dirty(keys []int64, coords []int) bool {
	for i, m := range df.keyPos {
		idx, ok := m[keys[i]]
		if !ok {
			// A key absent from the array cannot land in any chunk.
			return false
		}
		coords[i] = idx
	}
	_, hit := df.touched[df.geom.ChunkOf(coords)]
	return hit
}

// foldOverlay re-aggregates the touched chunks from the merged array
// through t — whose cube is the scan's merged result — replacing the
// tuples the dirty filter skipped: each cell of a touched chunk inside
// the restriction's chunk range becomes a tuple (its coordinates' keys,
// its value) and takes the same path a fact record does, so the scan's
// selections apply to it unchanged.
func (t *tupleAgg) foldOverlay(ctx context.Context, fold *OverlayFold, r Restriction, m *Metrics) error {
	g := fold.Arr.Geometry()
	lo, hi := r.ChunkRange(g.NumChunks())
	store := fold.Arr.Store()
	adims := fold.Arr.Dims()
	coords := make([]int, len(adims))
	for _, cn := range fold.Chunks {
		if cn < lo || cn >= hi {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		cells, err := store.ReadChunk(cn)
		if err != nil {
			return err
		}
		m.ChunksRead++
		m.CellsScanned += int64(len(cells))
		for _, c := range cells {
			g.Decompose(cn, int(c.Offset), coords)
			for i, d := range adims {
				t.keys[i] = d.Keys[coords[i]]
			}
			t.add(t.keys, c.Value)
		}
	}
	return nil
}

// SelectionChunks returns the sorted candidate chunk numbers the §4.2
// selection algorithm would enumerate for sels over a — the set of
// chunks whose content can influence the query's result. Used by the
// executor to scope result-cache version vectors: an ingest into a
// chunk outside this set cannot invalidate the cached result.
func SelectionChunks(a *array.Array, sels []Selection) ([]int, error) {
	if err := validateArray(a, &ScanSpec{Selections: sels}); err != nil {
		return nil, err
	}
	lists, err := selectionIndexLists(a, sels)
	if err != nil {
		return nil, err
	}
	return newChunkSelection(a.Geometry(), lists).candidateChunks(nil), nil
}
