package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/chunk"
)

// OverlayFold carries what the relational engines need to agree with
// the array engine while a delta overlay is live. Arr is the master
// array, read under the ScanSpec's View (reads yield base+delta
// merged); Chunks is the sorted set of chunks EVER touched by ingest —
// not just currently-dirty ones, because fact tuples falling in a
// once-touched chunk stay stale forever (compaction folds deltas into
// the array, never back into the fact file) — which the caller may
// narrow to those the query's selections can reach: a tuple that passes
// them lies in one of their candidate chunks.
//
// The relational engines handle a fold in two moves: every fact tuple
// whose cell lands in a listed chunk is skipped during the scan, and
// afterwards foldOverlay re-aggregates those chunks from the merged
// array — so the result is bit-identical to the array engine's, before
// and after any number of compactions. The skip relies on the engine's
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
		return nil, fmt.Errorf("core: overlay fold array has %d dims, query has %d", fold.Arr.NumDims(), len(dims))
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

// foldOverlay re-aggregates, into res — the scan's merged cube — what
// the merged array holds in the touched chunks the query can reach,
// replacing the tuples the dirty filter skipped. It is the array
// engine's kernel aggregating into the relational cube, so the result is
// the array engine's by construction: the group tables are each array
// index's key looked up once in the scan's dimension hashes (no
// dimension row = the unselected sentinel, keeping the inner-join drop),
// the selection is the §4.2 index lists, and only chunks inside the
// restriction's range that overlap the cross product are read.
func foldOverlay(ctx context.Context, s *ScanSpec, hashes []*dimHash, res *Result, m *Metrics) error {
	a, g := s.Overlay.Arr, s.Overlay.Arr.Geometry()
	if err := validateArray(a, s); err != nil {
		return err
	}
	start := time.Now()
	gm := &groupMapper{maps: make([][]int32, len(hashes)), result: res}
	for d, h := range hashes {
		if h == nil {
			continue
		}
		keys := a.Dims()[d].Keys
		gm.maps[d] = arena.Make[int32](res.mem, len(keys))
		for b, key := range keys {
			code, ok := h.lookup(key)
			if !ok {
				code = cellUnselected
			}
			gm.maps[d][b] = code
		}
	}
	sel, err := selectionOf(a, s)
	if err != nil {
		return err
	}
	m.OverlayTouched = int64(len(s.Overlay.Chunks))
	chunks := sel.reached(s.Overlay.Chunks)
	r := a.Store().Reader(s.View, nil)
	if err := newChunkKernel(g, gm, sel, res.mem).foldClaimed(ctx, &r, chunks, dispense(len(chunks)), m); err != nil {
		return err
	}
	m.OverlayFoldNS = time.Since(start).Nanoseconds()
	return nil
}

// foldClaimed folds the chunks of the list that next claims, until it
// runs dry: a parallel worker's loop, and the sequential one of the hot
// side and the relational overlay fold. A chunk with an overlay reads
// through ReadChunk — every statement refreshing after the same batch
// wants the same decoded, overlay-merged cells, so they belong in the
// chunk cache.
func (k *chunkKernel) foldClaimed(ctx context.Context, r *chunk.Reader, chunks []int, next func() (int, bool), m *Metrics) error {
	for i, ok := next(); ok; i, ok = next() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := k.foldChunk(r, chunks[i], m); err != nil {
			return err
		}
	}
	return nil
}
