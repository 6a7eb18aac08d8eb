package core

import (
	"math/bits"

	"repro/internal/array"
)

// ResolvedSelection is a statement's §4.2 selection resolved against an
// array's dimensions once: each dimension's final index list, bucketed
// for the chunk kernel, and the candidate chunks their cross product
// overlaps. The dimensions and the geometry outlive compaction, so one
// resolution serves every run of the statement and the planner's count
// of what those runs read (Work). It is read-only once built.
type ResolvedSelection struct {
	lists  [][]int // per dimension: the final index list, ascending
	sel    *chunkSelection
	chunks []int   // candidate chunks, ascending
	frac   float64 // the selected share of the array's cells

	// Pages is the B-tree pages the resolution's lookups pinned, one
	// lookup per selected value the dictionary holds.
	Pages int64
}

// ResolveSelection resolves sels against a: for each dimension, the
// B-tree index lists of the selected values are retrieved and merged
// (values on one attribute union; predicates on different attributes of
// the same dimension intersect). Dimensions with no predicate keep their
// full index range.
func ResolveSelection(a *array.Array, sels []Selection) (*ResolvedSelection, error) {
	if err := validateArray(a, &ScanSpec{Selections: sels}); err != nil {
		return nil, err
	}
	r := &ResolvedSelection{frac: 1}
	dims := a.Dims()
	lists, selected := make([][]int, len(dims)), make([]bool, len(dims))
	for _, s := range sels {
		var merged []int
		for _, v := range s.Values {
			list, pages, err := dims[s.Dim].Levels[s.Level].IndexList(v)
			if err != nil {
				return nil, err
			}
			r.Pages += int64(pages)
			merged = unionSorted(merged, list)
		}
		if selected[s.Dim] {
			merged = intersectSorted(lists[s.Dim], merged)
		}
		lists[s.Dim], selected[s.Dim] = merged, true
	}
	for d, l := range lists {
		if !selected[d] {
			l = make([]int, dims[d].Size())
			for i := range l {
				l[i] = i
			}
			lists[d] = l
		}
		r.frac *= float64(len(l)) / float64(dims[d].Size())
	}
	r.lists, r.sel = lists, newChunkSelection(a.Geometry(), lists)
	r.chunks = r.sel.candidateChunks(nil)
	return r, nil
}

// Chunks returns, ascending, the chunks the selection's cross product
// overlaps: the only chunks whose content can influence the result.
// Shared: read only.
func (r *ResolvedSelection) Chunks() []int { return r.chunks }

// Selectivity is the fraction of the array's cells the selection
// admits, the paper's S.
func (r *ResolvedSelection) Selectivity() float64 { return r.frac }

// ArrayWork is what an array run reads and does, counted from the chunk
// directory before the run (ArrayRunWork) or by it (Metrics).
type ArrayWork struct {
	Chunks int64 // non-empty chunks read
	Pages  int64 // their pages, read cold
	Cells  int64 // cells folded by a scan or filter-scan
	Probes int64 // candidate cells a seek visits
}

// ArrayRunWork counts, from the base directory of a's store alone, what
// an array run under r (nil = no selection) reads: the non-empty
// candidate chunks, the pages of their extents, and per chunk the
// kernel's own choice (chunkKernel.begin) of seeking its share of the
// cross product (Probes) or filter-scanning its cells (Cells).
func ArrayRunWork(a *array.Array, r *ResolvedSelection) ArrayWork {
	var w ArrayWork
	s := a.Store()
	if r == nil {
		for cn := range a.Geometry().NumChunks() {
			if cells, pages := s.ChunkSize(cn); cells > 0 {
				w.Chunks++
				w.Pages += pages
				w.Cells += cells
			}
		}
		return w
	}
	runs := newChunkRuns(len(r.sel.inChunk), r.sel)
	for _, cn := range r.chunks {
		cells, pages := s.ChunkSize(cn)
		if cells == 0 {
			continue
		}
		w.Chunks++
		w.Pages += pages
		if cands := runs.begin(cn); seekPays(cands, runs.lists[len(runs.lists)-1], int(cells)) {
			w.Probes += int64(cands)
		} else {
			w.Cells += cells
		}
	}
	return w
}

// seekPays decides how the kernel reads one chunk of cells cells under a
// selection whose share of it is cands candidates, last being the last
// dimension's selected in-chunk coordinates. The §4.2 enumeration
// visits the candidates as runs, one per contiguous stretch of last
// under each element of the leading dimensions' cross product, and
// binary-searches each run's start: about seeks x log2(cells) steps.
// When that exceeds the cells, one masked pass over them is cheaper.
func seekPays(cands int, last []int, cells int) bool {
	if cands == 0 {
		return false
	}
	runs := 1
	for i := 1; i < len(last); i++ {
		if last[i] != last[i-1]+1 {
			runs++
		}
	}
	seeks := cands / len(last) * runs
	return seeks*bits.Len(uint(cells-1)) <= cells
}

// selectionOf is the kernel's selection for a run of s over a: s's
// resolved one, or sels resolved now (nil = every cell).
func selectionOf(a *array.Array, s *ScanSpec) (*chunkSelection, error) {
	if len(s.Selections) == 0 {
		return nil, nil
	}
	if s.Resolved != nil {
		return s.Resolved.sel, nil
	}
	r, err := ResolveSelection(a, s.Selections)
	if err != nil {
		return nil, err
	}
	return r.sel, nil
}
