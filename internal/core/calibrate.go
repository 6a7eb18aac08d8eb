package core

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/bitmap"
	"repro/internal/catalog"
	"repro/internal/chunk"
)

// KernelCosts are the engines' CPU prices per unit of the work the
// planner counts, in nanoseconds: a cell folded by a scan, a candidate
// cell visited by a seek, a fact tuple joined and aggregated, a bitmap
// word ANDed.
type KernelCosts struct {
	CellNS, ProbeNS, TupleNS, WordNS float64
}

// MeasureKernelCosts times the engines' own inner loops — the chunk
// kernel's scan and seek, the relational tuple aggregator, the bitmap
// AND — on one synthetic chunk, fact page and bitmap pair built here, so
// the figures depend on the machine alone and no data set needs to
// exist yet. The chunk has the paper's Data Set 1 shape and density
// (20x20x20x10 cells, one in ten valid) and the seek visits a point
// selection's share of it (4x4x4x10 candidates). Each figure is the best
// of a few repetitions, so a preempted one does not count; the whole
// measurement takes a few milliseconds.
func MeasureKernelCosts() KernelCosts {
	const reps = 5
	best := func(units int, f func()) float64 {
		var min time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return max(float64(min.Nanoseconds()), 1) / float64(units)
	}
	rng := rand.New(rand.NewSource(1))

	// The chunk: 8 000 valid cells of 80 000, grouped along dimension 0
	// into 4 groups, as a Query 2 groups by one attribute.
	shape := []int{20, 20, 20, 10}
	g, _ := chunk.NewGeometry(shape, shape)
	capacity := g.ChunkCapacity()
	cells := make([]chunk.Cell, 0, capacity/10)
	for off := range capacity {
		if rng.Intn(10) == 0 {
			cells = append(cells, chunk.Cell{Offset: uint32(off), Value: int64(rng.Intn(100))})
		}
	}
	groups := make([]int32, shape[0])
	for i := range groups {
		groups[i] = int32(i / 5)
	}
	res, _ := newResult([]int{0}, [][]string{{"a", "b", "c", "d"}})
	gm := &groupMapper{maps: [][]int32{groups, nil, nil, nil}, result: res}
	var costs KernelCosts
	scan := newChunkKernel(g, gm, nil, nil)
	costs.CellNS = best(len(cells), func() { scan.consolidate(0, cells) })

	lists := [][]int{{4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	seek := newChunkKernel(g, gm, newChunkSelection(g, lists), nil)
	costs.ProbeNS = best(8*4*4*4*10, func() {
		for range 8 {
			seek.begin(0, len(cells))
			seek.chunkCells(0, cells)
		}
	})

	// A page's worth of fact records over the same dimensions, folded by
	// the aggregator both relational engines feed.
	const tuples = 4096
	rec := catalog.FactRecordSize(len(shape))
	recs := make([]byte, tuples*rec)
	keys := make([]int64, len(shape))
	for i := range tuples {
		for d := range keys {
			keys[d] = int64(rng.Intn(shape[d]))
		}
		catalog.EncodeFact(recs[i*rec:(i+1)*rec], keys, int64(rng.Intn(100)))
	}
	h := newDimHashIn(nil, uint64(shape[0]))
	for k, code := range groups {
		h.insert(int64(k), code)
	}
	tres, _ := newResult([]int{0}, [][]string{{"a", "b", "c", "d"}})
	t := newTupleAgg(context.Background(), []*dimHash{h, nil, nil, nil}, tres, nil, nil)
	costs.TupleNS = best(tuples, func() {
		for i := range tuples {
			t.record(uint64(i), recs[i*rec:(i+1)*rec])
		}
	})

	const bits = 1 << 16
	a, b := bitmap.New(bits), bitmap.New(bits)
	a.SetAll()
	for i := uint64(0); i < bits; i += 3 {
		b.Set(i)
	}
	costs.WordNS = best(16*bitmap.WordsFor(bits), func() {
		for range 16 {
			a.And(b)
		}
	})
	return costs
}
