package core

import (
	"context"
	"fmt"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/factfile"
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

// StarJoinConsolidateRestrictedOverlay is StarJoinConsolidateRestricted
// with an optional delta-overlay fold (nil behaves identically).
func StarJoinConsolidateRestrictedOverlay(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable,
	sels []Selection, spec GroupSpec, workers int, r Restriction, fold *OverlayFold) (*Result, Metrics, error) {
	if err := r.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	df, err := newDirtyFilter(fold, dims)
	if err != nil {
		return nil, Metrics{}, err
	}
	var res *Result
	var m Metrics
	if workers > 1 {
		res, m, err = starJoinParallel(ctx, ff, dims, sels, spec, workers, r, df)
	} else {
		lo, hi := r.TupleRange(ff)
		res, m, err = starJoin(ctx, ff, dims, sels, spec, lo, hi, df)
	}
	if err != nil {
		return nil, m, err
	}
	if err := foldOverlay(ctx, fold, dims, sels, spec, r, res, &m); err != nil {
		res.Release()
		return nil, m, err
	}
	return res, m, nil
}

// BitmapSelectConsolidateRestrictedOverlay is
// BitmapSelectConsolidateRestricted with an optional delta-overlay fold
// (nil behaves identically).
func BitmapSelectConsolidateRestrictedOverlay(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable,
	src BitmapIndexSource, sels []Selection, spec GroupSpec, workers int, r Restriction, fold *OverlayFold) (*Result, Metrics, error) {
	if err := r.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	if workers < 1 {
		workers = 1
	}
	df, err := newDirtyFilter(fold, dims)
	if err != nil {
		return nil, Metrics{}, err
	}
	lo, hi := r.TupleRange(ff)
	res, m, err := bitmapSelect(ctx, ff, dims, src, sels, spec, workers, lo, hi, df)
	if err != nil {
		return nil, m, err
	}
	if err := foldOverlay(ctx, fold, dims, sels, spec, r, res, &m); err != nil {
		res.Release()
		return nil, m, err
	}
	return res, m, nil
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
// into base, replacing the tuples the dirty filter skipped. It builds
// its own group state (buildRelGroupState's label order is
// deterministic — first-seen in dimension-table scan order — so the
// fold cube Merges into the scan cube), walks the touched chunks inside
// the restriction's chunk range, and applies the same selection
// predicates the scan did. A nil fold is a no-op.
func foldOverlay(ctx context.Context, fold *OverlayFold, dims []*catalog.DimensionTable,
	sels []Selection, spec GroupSpec, r Restriction, base *Result, m *Metrics) error {
	if fold == nil || len(fold.Chunks) == 0 {
		return nil
	}
	ar := queryArenas.Get()
	st, err := buildRelGroupState(dims, spec, ar)
	if err != nil {
		queryArenas.Put(ar)
		return err
	}
	defer st.result.Release()
	filters, err := selectionKeySets(dims, sels)
	if err != nil {
		return err
	}
	g := fold.Arr.Geometry()
	lo, hi := r.ChunkRange(g.NumChunks())
	store := fold.Arr.Store()
	adims := fold.Arr.Dims()
	n := g.NumDims()
	coords := make([]int, n)
	keys := make([]int64, n)
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
			for i := 0; i < n; i++ {
				keys[i] = adims[i].Keys[coords[i]]
			}
			pass := true
			for i, f := range filters {
				if f != nil {
					if _, ok := f[keys[i]]; !ok {
						pass = false
						break
					}
				}
			}
			if !pass {
				continue
			}
			idx, ok := st.groupIndex(keys)
			if !ok {
				continue
			}
			st.result.add(idx, c.Value)
		}
	}
	return base.Merge(st.result)
}

// SelectionChunks returns the sorted candidate chunk numbers the §4.2
// selection algorithm would enumerate for sels over a — the set of
// chunks whose content can influence the query's result. Used by the
// executor to scope result-cache version vectors: an ingest into a
// chunk outside this set cannot invalidate the cached result.
func SelectionChunks(a *array.Array, sels []Selection) ([]int, error) {
	lists, err := selectionIndexLists(a, sels)
	if err != nil {
		return nil, err
	}
	return newChunkSelection(a.Geometry(), lists).candidateChunks(nil), nil
}
