package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/array"
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
//     lists and merge them into a final list per dimension — or take
//     s.Resolved, the statement's lists looked up once;
//  2. enumerate the cross-product of the final lists in chunk-number
//     order, skipping chunks that overlap no cross-product element (or
//     hold no valid cells) without reading them;
//  3. within a chunk, generate elements in increasing chunk-offset order
//     and probe the offset-sorted cells by binary search, aggregating
//     the hits into the result cube.
//
// Either way the run is one list of candidate chunks (arrayCandidates),
// claimed chunk by chunk by s.Workers workers that each fold into a
// private cube, merged at the end (every tracked aggregate is
// distributive). Per-chunk cost varies wildly with density, so claiming
// balances where static ranges would not. ctx is checked before every
// chunk read, so a canceled query stops after the chunk in flight.
func ArrayConsolidate(ctx context.Context, a *array.Array, s ScanSpec) (*Result, Metrics, error) {
	if err := validateArray(a, &s); err != nil {
		return nil, Metrics{}, err
	}
	sel, err := selectionOf(a, &s)
	if err != nil {
		return nil, Metrics{}, err
	}
	chunks, workers := arrayCandidates(a, sel, &s), s.Workers
	if s.OnlyHot { // a handful of chunks: not worth a fan-out
		workers = 1
	}
	// One pooled arena per worker holds its cube, its kernel's tables and
	// its reader's decode scratch; the cube carries it until Release.
	return runParts(ctx, workers, len(chunks), func(ctx context.Context, _ int, next func() (int, bool), p *workerPartial) {
		ar := queryArenas.Get()
		gm, err := newArrayGroupMapperIn(a, s.Group, ar)
		if err != nil {
			queryArenas.Put(ar)
			p.err = err
			return
		}
		r := a.Store().Reader(s.View, ar)
		p.res = gm.result
		p.err = newChunkKernel(a.Geometry(), gm, sel, ar).foldClaimed(ctx, &r, chunks, next, &p.m)
		p.rows, p.io = p.m.ProbeHits+p.m.CellsScanned, p.m.ChunksRead
	})
}

// arrayCandidates lists, ascending, the chunks an array run reads: with
// s.OnlyHot the chunks of s.Hot that sel reaches, otherwise every other
// chunk with cells under s.View that sel (nil = every cell) reaches. The
// Hot chunks are listed whatever their cells: the hot side exists to
// fold their overlay.
func arrayCandidates(a *array.Array, sel *chunkSelection, s *ScanSpec) []int {
	if s.OnlyHot {
		return sel.reached(s.Hot)
	}
	counts := a.Store().Reader(s.View, nil)
	keep := func(cn int) bool {
		_, hot := slices.BinarySearch(s.Hot, cn)
		return !hot && counts.ChunkCells(cn) > 0
	}
	if sel != nil {
		return sel.candidateChunks(keep)
	}
	n := a.Geometry().NumChunks()
	out := make([]int, 0, n)
	for cn := range n {
		if keep(cn) {
			out = append(out, cn)
		}
	}
	return out
}

// validateArray checks s against a's dimensions.
func validateArray(a *array.Array, s *ScanSpec) error {
	dims := a.Dims()
	return s.validate(len(dims), func(i int) (string, int) { return dims[i].Name, len(dims[i].Levels) })
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

// SelectionSelectivity estimates the fraction of the cube's cells that
// satisfy the selections, assuming independence — the S = s^r of §5.6.
// Used by the harness to label benchmark series.
func SelectionSelectivity(a *array.Array, sels []Selection) (float64, error) {
	r, err := ResolveSelection(a, sels)
	if err != nil {
		return 0, err
	}
	return r.Selectivity(), nil
}
