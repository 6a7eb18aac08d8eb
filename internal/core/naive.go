package core

import (
	"repro/internal/array"
	"repro/internal/chunk"
)

// ArraySelectConsolidateNaive evaluates a consolidation with selection on
// the OLAP Array WITHOUT the §4.2 optimizations: the cross-product of the
// per-dimension index lists is enumerated in plain index order (not chunk
// order), each element's chunk is fetched on demand with only a
// one-chunk cache, and no chunk skipping is applied beyond empty-chunk
// elision. It exists as the ablation baseline showing why the paper
// generates cross-product elements chunk by chunk.
func ArraySelectConsolidateNaive(a *array.Array, sels []Selection, spec GroupSpec) (*Result, Metrics, error) {
	var m Metrics
	if err := validateArray(a, &ScanSpec{Selections: sels}); err != nil {
		return nil, m, err
	}
	gm, err := newArrayGroupMapper(a, spec)
	if err != nil {
		return nil, m, err
	}
	r, err := ResolveSelection(a, sels)
	if err != nil {
		return nil, m, err
	}
	lists := r.lists
	for _, l := range lists {
		if len(l) == 0 {
			return gm.result, m, nil
		}
	}

	g := a.Geometry()
	n := g.NumDims()
	store := a.Store().Reader(chunk.View{}, nil)
	coords := make([]int, n)
	sel := make([]int, n)
	cachedChunk := -1
	var cached []chunk.Cell

	for {
		for i := 0; i < n; i++ {
			coords[i] = lists[i][sel[i]]
		}
		cn, off := g.Locate(coords)
		if store.ChunkCells(cn) > 0 {
			if cn != cachedChunk {
				cells, err := store.ReadChunk(cn)
				if err != nil {
					return nil, m, err
				}
				m.ChunksRead++
				cachedChunk = cn
				cached = cells
			}
			m.Probes++
			if v, ok := chunk.SearchCells(cached, uint32(off)); ok {
				m.ProbeHits++
				gm.result.aggs[gm.cellIndex(coords)].add(v)
			}
		}
		// Advance the cross-product odometer over raw index lists.
		i := n - 1
		for ; i >= 0; i-- {
			sel[i]++
			if sel[i] < len(lists[i]) {
				break
			}
			sel[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return gm.result, m, nil
}
