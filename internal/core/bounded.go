package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/array"
	"repro/internal/chunk"
)

// ArrayConsolidateBounded evaluates a consolidation with bounded result
// memory — the extension §4.1 describes but does not implement ("our
// algorithm would need to be extended to compute the result OLAP object
// chunk by chunk, where each chunk fits in memory"). The result cube is
// partitioned into slabs along its first grouped dimension, each at most
// maxCells cells; the input array is scanned once per slab and only
// cells mapping into the current slab are aggregated. Rows are returned
// sorted as SortedRows would sort them.
//
// maxCells <= 0 selects a single pass (plain ArrayConsolidate).
func ArrayConsolidateBounded(a *array.Array, spec GroupSpec, maxCells int) ([]Row, Metrics, error) {
	var m Metrics
	if maxCells <= 0 {
		res, m, err := ArrayConsolidate(context.TODO(), a, ScanSpec{Group: spec})
		if err != nil {
			return nil, m, err
		}
		return res.SortedRows(), m, nil
	}

	gm, err := newArrayGroupMapper(a, spec)
	if err != nil {
		return nil, m, err
	}
	labels := gm.result.labels
	if len(labels) == 0 {
		// Fully collapsed: one cell, no partitioning needed.
		res, m, err := ArrayConsolidate(context.TODO(), a, ScanSpec{Group: spec})
		if err != nil {
			return nil, m, err
		}
		return res.SortedRows(), m, nil
	}

	// Slab width along the first grouped dimension.
	restCells := 1
	for _, lab := range labels[1:] {
		restCells *= len(lab)
	}
	if restCells > maxCells {
		return nil, m, fmt.Errorf("core: result rows of %d cells exceed the %d-cell bound; partitioning is along the first grouped dimension only", restCells, maxCells)
	}
	slabWidth := maxCells / restCells
	if slabWidth < 1 {
		slabWidth = 1
	}
	firstCard := len(labels[0])

	// Per pass the first grouped dimension's table is shifted so the slab
	// starts at group 0, and a mask keeps the kernel to the base indexes
	// that map into the slab.
	firstDim := gm.result.groupDims[0]
	firstTab := gm.maps[firstDim]
	slabTab := make([]int32, len(firstTab))
	sel := &chunkSelection{masks: make([][]bool, len(gm.maps))}
	sel.masks[firstDim] = make([]bool, len(firstTab))
	slabMaps := append([][]int32(nil), gm.maps...)
	slabMaps[firstDim] = slabTab

	var rows []Row
	for lo := 0; lo < firstCard; lo += slabWidth {
		hi := min(lo+slabWidth, firstCard)
		for b, fg := range firstTab {
			slabTab[b] = fg - int32(lo)
			sel.masks[firstDim][b] = int(fg) >= lo && int(fg) < hi
		}
		slabLabels := append([][]string{labels[0][lo:hi]}, labels[1:]...)
		slab, err := newResult(gm.result.groupDims, slabLabels)
		if err != nil {
			return nil, m, err
		}
		k := newChunkKernel(a.Geometry(), &groupMapper{maps: slabMaps, result: slab}, sel, nil)
		err = a.Store().ScanChunks(func(cn int, cells []chunk.Cell) error {
			m.ChunksRead++
			m.CellsScanned += int64(len(cells))
			return k.consolidate(cn, cells)
		})
		if err != nil {
			return nil, m, err
		}
		rows = append(rows, slab.Rows()...)
	}

	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Groups {
			if rows[i].Groups[k] != rows[j].Groups[k] {
				return rows[i].Groups[k] < rows[j].Groups[k]
			}
		}
		return false
	})
	return rows, m, nil
}
