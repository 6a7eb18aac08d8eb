package core

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/chunk"
)

// ArrayBox invokes fn, in ascending chunk and offset order, for every
// valid cell under v whose index along each dimension d is in lists[d]
// (ascending) — the ADT's subset-sum and slicing functions (§3.5) read
// as a §4.2 selection. Only the chunks the box reaches are read, each
// through VisitChunk: pairs read in place are cut to the box's offset
// runs, decoded or overlay-merged cells binary-searched run by run, and
// only the cells inside are decomposed. Coordinates passed to fn are
// reused across calls.
func ArrayBox(a *array.Array, v chunk.View, lists [][]int, fn func(coords []int, value int64) error) error {
	g := a.Geometry()
	dims := g.Dims()
	if len(lists) != len(dims) {
		return fmt.Errorf("core: box of rank %d over %d dimensions", len(lists), len(dims))
	}
	for d, list := range lists {
		for i, idx := range list {
			if idx < 0 || idx >= dims[d] || i > 0 && idx <= list[i-1] {
				return fmt.Errorf("core: box list of dimension %d is not ascending inside [0, %d)", d, dims[d])
			}
		}
	}
	sel := newChunkSelection(g, lists)
	r := a.Store().Reader(v, nil)
	w := boxWalk{g: g, runs: newChunkRuns(len(dims), sel), coords: make([]int, len(dims)), fn: fn}
	for _, cn := range sel.candidateChunks(func(cn int) bool { return r.ChunkCells(cn) > 0 }) {
		w.runs.begin(cn)
		w.seek = chunk.NewPairSeek(&w.runs)
		if err := r.VisitChunk(cn, w.cells, w.pairs); err != nil {
			return err
		}
	}
	return nil
}

// SliceBox returns the box of the ADT's slicing function (§3.5), for
// ArrayBox: index idx along dimension dim, whole along every other.
func SliceBox(a *array.Array, dim, idx int) ([][]int, error) {
	if dim < 0 || dim >= a.NumDims() {
		return nil, fmt.Errorf("core: slice dimension %d out of range", dim)
	}
	lists := wholeLists(a)
	lists[dim] = []int{idx}
	return lists, nil
}

// wholeLists returns, per dimension of a, the list of all its indexes.
func wholeLists(a *array.Array) [][]int {
	lists := make([][]int, a.NumDims())
	for i, d := range a.Dims() {
		for b := range d.Size() {
			lists[i] = append(lists[i], b)
		}
	}
	return lists
}

// boxWalk hands ArrayBox's caller the cells of one chunk that fall in
// the box's offset runs, whichever way VisitChunk hands the chunk over.
type boxWalk struct {
	g      *chunk.Geometry
	runs   chunkRuns
	seek   chunk.PairSeek
	coords []int
	fn     func(coords []int, value int64) error
}

func (w *boxWalk) cells(cn int, cells []chunk.Cell) error {
	at := 0
	for lo, hi, ok := w.runs.NextRun(); ok && at < len(cells); lo, hi, ok = w.runs.NextRun() {
		for at = chunk.LowerBound(cells, at, lo); at < len(cells) && cells[at].Offset < hi; at++ {
			if err := w.fn(w.g.Decompose(cn, int(cells[at].Offset), w.coords), cells[at].Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *boxWalk) pairs(cn int, p chunk.OffsetPairs) error {
	for len(p) > 0 {
		var in chunk.OffsetPairs
		for in, p = w.seek.Cut(p); len(in) > 0; {
			off, v, rest := in.Next()
			in = rest
			if err := w.fn(w.g.Decompose(cn, int(off), w.coords), v); err != nil {
				return err
			}
		}
	}
	return nil
}
