package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/array"
	"repro/internal/chunk"
)

// groupMapper is the phase-1 state of the array algorithms: for each
// dimension, a table mapping base array index to result-cube group index,
// plus the result cube itself. The tables are the loaded IndexToIndex
// arrays of §3.4 (or identity/constant tables for key-grouped and
// collapsed dimensions).
type groupMapper struct {
	maps   [][]int32 // per dim: base index -> group index (nil = collapse)
	result *Result
}

// newArrayGroupMapper builds the mapper from the ADT's dimension state,
// with the result cube on the GC heap.
func newArrayGroupMapper(a *array.Array, spec GroupSpec) (*groupMapper, error) {
	return newArrayGroupMapperIn(a, spec, nil)
}

// newArrayGroupMapperIn is newArrayGroupMapper with the result cube's
// aggregate state carved from ar (nil = GC heap). The mapping tables and
// labels stay on the heap: GroupByLevel shares the dimension's loaded
// I2I/Dict slices, and GroupByKey tables are retained by the caller only
// through the mapper, which dies with the query either way.
func newArrayGroupMapperIn(a *array.Array, spec GroupSpec, ar *arena.Arena) (*groupMapper, error) {
	dims := a.Dims()
	if len(spec) != len(dims) {
		return nil, fmt.Errorf("core: group spec has %d entries for %d dimensions", len(spec), len(dims))
	}
	gm := &groupMapper{maps: make([][]int32, len(dims))}
	var groupDims []int
	var labels [][]string
	for i, dg := range spec {
		d := dims[i]
		switch dg.Target {
		case Collapse:
			// nil map: every base index folds into the same group.
		case GroupByKey:
			tab := make([]int32, d.Size())
			lab := make([]string, d.Size())
			for b := range tab {
				tab[b] = int32(b)
				lab[b] = keyLabel(d.Keys[b])
			}
			gm.maps[i] = tab
			groupDims = append(groupDims, i)
			labels = append(labels, lab)
		case GroupByLevel:
			if dg.Level < 0 || dg.Level >= len(d.Levels) {
				return nil, fmt.Errorf("core: dimension %s has no attribute level %d", d.Name, dg.Level)
			}
			l := d.Levels[dg.Level]
			gm.maps[i] = l.I2I
			groupDims = append(groupDims, i)
			labels = append(labels, l.Dict)
		default:
			return nil, fmt.Errorf("core: unknown group target %d", dg.Target)
		}
	}
	res, err := newResultIn(ar, groupDims, labels)
	if err != nil {
		return nil, err
	}
	gm.result = res
	return gm, nil
}

// cellIndex maps full array coordinates to the result cube's linear
// index.
func (gm *groupMapper) cellIndex(coords []int) int {
	idx := 0
	li := 0
	for i, tab := range gm.maps {
		if tab == nil {
			continue
		}
		idx += int(tab[coords[i]]) * gm.result.strides[li]
		li++
	}
	return idx
}

// ArrayConsolidate evaluates a consolidation on the OLAP Array ADT at
// the parallel degree s.Workers.
//
// Without selections it is the algorithm of §4.1: load the IndexToIndex
// arrays, then scan the input array once, mapping every valid cell's
// indices to its result cell and aggregating in place. The star join
// and the aggregation are fused; every lookup is position-based.
//
// With selections it is the algorithm of §4.2:
//
//  1. probe the per-attribute B-trees for the selected values' index
//     lists and merge them into a final list per dimension;
//  2. enumerate the cross-product of the final lists in chunk-number
//     order, skipping chunks that overlap no cross-product element (or
//     hold no valid cells) without reading them;
//  3. within a chunk, generate elements in increasing chunk-offset order
//     and probe the offset-sorted cells by binary search, aggregating
//     the hits into the result cube.
//
// ctx is checked before every chunk read, so a canceled query stops
// after the chunk in flight.
func ArrayConsolidate(ctx context.Context, a *array.Array, s ScanSpec) (*Result, Metrics, error) {
	if err := validateArray(a, &s); err != nil {
		return nil, Metrics{}, err
	}
	sel, err := newArraySelection(a, s.Selections)
	if err != nil {
		return nil, Metrics{}, err
	}
	if s.OnlyHot { // a handful of chunks: not worth a fan-out
		return runKernel(a, s.Group, sel, func(store *chunk.Store, k *chunkKernel, m *Metrics) error {
			return k.foldChunks(ctx, store, s.Hot, m)
		})
	}
	if sel != nil {
		return arraySelect(ctx, a, s, sel)
	}
	return arrayScan(ctx, a, s)
}

// validateArray checks s against a's dimensions.
func validateArray(a *array.Array, s *ScanSpec) error {
	dims := a.Dims()
	return s.validate(len(dims), func(i int) (string, int) { return dims[i].Name, len(dims[i].Levels) })
}

// runKernel runs body with a chunk kernel that aggregates into a fresh
// result cube, reading through a private clone of a's chunk store. One
// pooled arena per call — so per sequential query or per parallel
// worker — holds the cube, the kernel's tables and the clone's decode
// scratch; the result carries it until Release.
func runKernel(a *array.Array, spec GroupSpec, sel *chunkSelection,
	body func(store *chunk.Store, k *chunkKernel, m *Metrics) error) (*Result, Metrics, error) {
	var m Metrics
	ar := queryArenas.Get()
	gm, err := newArrayGroupMapperIn(a, spec, ar)
	if err != nil {
		queryArenas.Put(ar)
		return nil, m, err
	}
	store := a.Store().Clone()
	store.SetArena(ar)
	if err := body(store, newChunkKernel(a.Geometry(), gm, sel, ar), &m); err != nil {
		gm.result.Release()
		return nil, m, err
	}
	return gm.result, m, nil
}

// arrayScan is §4.1 over the whole chunk directory, split across the
// workers into contiguous ranges by splitRange. Each worker aggregates
// into a private cube; the partials merge at the end (every tracked
// aggregate is distributive). The buffer pool is shared and thread-safe,
// so workers contend only on page fetches. The chunks of s.Hot are not
// read: a worker scans the runs between them.
func arrayScan(ctx context.Context, a *array.Array, s ScanSpec) (*Result, Metrics, error) {
	chunks := a.Geometry().NumChunks()
	return runParts(ctx, s.Workers, chunks, func(ctx context.Context, w, n int, p *workerPartial) {
		wlo, whi := splitRange(0, chunks, w, n)
		p.res, p.m, p.err = runKernel(a, s.Group, nil, func(store *chunk.Store, k *chunkKernel, m *Metrics) error {
			fold := func(cn int, cells []chunk.Cell) error {
				m.ChunksRead++
				m.CellsScanned += int64(len(cells))
				return k.consolidate(cn, cells)
			}
			last := -1 // a chunk read in place arrives as one or more runs
			foldPairs := func(cn int, p chunk.OffsetPairs) error {
				if cn != last {
					m.ChunksRead++
					last = cn
				}
				m.CellsScanned += int64(p.Len())
				return k.consolidatePairs(cn, p)
			}
			for _, skip := range s.Hot {
				if err := store.ScanChunkRange(ctx, wlo, min(skip, whi), fold, foldPairs); err != nil {
					return err
				}
				wlo = max(wlo, skip+1)
			}
			return store.ScanChunkRange(ctx, wlo, whi, fold, foldPairs)
		})
		p.rows, p.io = p.m.CellsScanned, p.m.ChunksRead
	})
}

// intersectSorted intersects two ascending int slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// unionSorted merges two ascending int slices, dropping duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// selectionIndexLists resolves the per-dimension final index lists of
// §4.2: for each dimension, the B-tree index lists of the selected values
// are retrieved and merged (values on one attribute union; predicates on
// different attributes of the same dimension intersect). Dimensions with
// no predicate yield the full index range. The selections must have
// passed ScanSpec.validate.
func selectionIndexLists(a *array.Array, sels []Selection) ([][]int, error) {
	dims := a.Dims()
	lists := make([][]int, len(dims))
	for i, d := range dims {
		all := make([]int, d.Size())
		for b := range all {
			all[b] = b
		}
		lists[i] = all
	}
	for _, s := range sels {
		var merged []int
		for _, v := range s.Values {
			list, err := dims[s.Dim].Levels[s.Level].IndexList(v)
			if err != nil {
				return nil, err
			}
			merged = unionSorted(merged, list)
		}
		lists[s.Dim] = intersectSorted(lists[s.Dim], merged)
	}
	return lists, nil
}

// newArraySelection resolves sels into the kernel's selection; nil = all.
func newArraySelection(a *array.Array, sels []Selection) (*chunkSelection, error) {
	if len(sels) == 0 {
		return nil, nil
	}
	lists, err := selectionIndexLists(a, sels)
	if err != nil {
		return nil, err
	}
	return newChunkSelection(a.Geometry(), lists), nil
}

// arraySelect is §4.2 over the candidate chunks (chunks listed in s.Hot
// or without valid cells are skipped unread). The candidates are
// materialized once in chunk-number order and claimed from an atomic
// dispenser — by the one sequential reader, or by workers each folding
// into a private cube merged at the end (per-chunk cost varies wildly
// with density, so static ranges would balance poorly).
func arraySelect(ctx context.Context, a *array.Array, s ScanSpec, sel *chunkSelection) (*Result, Metrics, error) {
	base := a.Store()
	candidates := sel.candidateChunks(func(cn int) bool {
		_, skip := slices.BinarySearch(s.Hot, cn)
		return !skip && base.ChunkCells(cn) > 0
	})
	var claimed atomic.Int64
	return runParts(ctx, s.Workers, len(candidates), func(ctx context.Context, _, _ int, p *workerPartial) {
		// foldChunk, not the scan path: a chunk that must be decoded goes
		// through ReadChunk, since the candidate chunks are the working set
		// the shared decoded-chunk cache exists to retain.
		p.res, p.m, p.err = runKernel(a, s.Group, sel, func(store *chunk.Store, k *chunkKernel, m *Metrics) error {
			for {
				t := claimed.Add(1) - 1
				if t >= int64(len(candidates)) {
					return nil
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := k.foldChunk(store, candidates[t], m); err != nil {
					return err
				}
			}
		})
		p.rows, p.io = p.m.ProbeHits+p.m.CellsScanned, p.m.ChunksRead
	})
}

// SelectionSelectivity estimates the fraction of the cube's cells that
// satisfy the selections, assuming independence — the S = s^r of §5.6.
// Used by the harness to label benchmark series.
func SelectionSelectivity(a *array.Array, sels []Selection) (float64, error) {
	if err := validateArray(a, &ScanSpec{Selections: sels}); err != nil {
		return 0, err
	}
	lists, err := selectionIndexLists(a, sels)
	if err != nil {
		return 0, err
	}
	s := 1.0
	for i, l := range lists {
		s *= float64(len(l)) / float64(a.Dims()[i].Size())
	}
	return s, nil
}
