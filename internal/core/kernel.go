package core

import (
	"fmt"
	"math/bits"

	"repro/internal/arena"
	"repro/internal/chunk"
)

// Digit-table sentinels. Real entries are result-cube indexes in
// [0, maxResultCells); the sentinels are negative enough that a sum of
// two entries is negative whenever either is one, so the per-cell loop
// tests the sum's sign once.
const (
	cellUnselected int32 = -1 << 29 // a selection mask excludes the digit
	cellOutside    int32 = -1 << 30 // the digit lies past the array bounds
)

// chunkKernel is the inner loop of every array consolidation. A cell's
// result-cube index is the sum over dimensions of
// groupIndex(chunkStart + digit) x resultStride, and within one chunk
// the start is fixed, so the kernel folds start, group table and stride
// into one small table per dimension, then merges adjacent dimensions'
// tables until the chunk offset splits into just two mixed-radix digits:
// the leading dimensions [0, split) and the trailing ones. Per cell that
// leaves a reciprocal multiply, two loads and an add where the
// coordinate rebuild needed a div/mod pair, a lookup and a multiply per
// dimension.
//
// A selection optionally restricts each dimension to a subset of its
// base indexes; a masked-out or out-of-bounds digit folds to a sentinel.
type chunkKernel struct {
	res     *Result
	maps    [][]int32       // per dim: base index -> group index (nil = collapsed)
	strides []int32         // per dim: the dimension's stride in res (0 = collapsed)
	sel     *chunkSelection // nil = every cell

	dims, shape, chunksPer []int

	split    int    // dims [0, split) form the high digit
	loChunks int    // chunks per step of the high digit's chunk coordinates
	loSize   uint32 // cells per step of the high digit: offset = hi*loSize + lo
	loMagic  uint64 // ceil(2^64 / loSize): offset/loSize as one multiply

	// hi and lo are the folded tables of the chunk the keys name: the
	// high table depends only on the chunk coordinates of its dimensions
	// (cn / loChunks), the low one on the rest (cn % loChunks), so a scan
	// in chunk order rebuilds the high table only when it carries.
	hi, lo       []int32
	hiKey, loKey int

	inLists [][]int // probe scratch: the chunk's selected in-chunk coordinates
	inPos   []int   // probe scratch: the cross-product odometer
}

// newChunkKernel builds the kernel aggregating the cells sel selects (nil
// = all) into gm's result cube, with its tables carved from ar (nil = GC
// heap).
func newChunkKernel(g *chunk.Geometry, gm *groupMapper, sel *chunkSelection, ar *arena.Arena) *chunkKernel {
	n := g.NumDims()
	k := &chunkKernel{
		res:       gm.result,
		maps:      gm.maps,
		strides:   make([]int32, n),
		sel:       sel,
		dims:      g.Dims(),
		shape:     g.ChunkShape(),
		chunksPer: make([]int, n),
		hiKey:     -1,
		loKey:     -1,
		inLists:   make([][]int, n),
		inPos:     make([]int, n),
	}
	li := 0
	for d, tab := range gm.maps {
		k.chunksPer[d] = (k.dims[d] + k.shape[d] - 1) / k.shape[d]
		if tab != nil {
			k.strides[d] = int32(gm.result.strides[li])
			li++
		}
	}
	// Split where the two tables are smallest in total. The first minimum
	// wins, and split 0 (an empty high digit, one entry) is always a
	// candidate, so the low digit is never a single cell unless the whole
	// chunk is.
	hiSize, loSize := 1, g.ChunkCapacity()
	bestHi, bestLo := hiSize, loSize
	for d := 0; d < n; d++ {
		hiSize *= k.shape[d]
		loSize /= k.shape[d]
		if hiSize+loSize < bestHi+bestLo {
			k.split, bestHi, bestLo = d+1, hiSize, loSize
		}
	}
	k.loChunks = 1
	for d := k.split; d < n; d++ {
		k.loChunks *= k.chunksPer[d]
	}
	k.loSize = uint32(bestLo)
	// A one-cell chunk wraps the magic to 0: every offset then lands in
	// the low digit unchanged, where the bounds check rejects all but 0.
	k.loMagic = ^uint64(0)/uint64(bestLo) + 1
	k.hi = arena.Make[int32](ar, bestHi)
	k.lo = arena.Make[int32](ar, bestLo)
	return k
}

// load points the tables at chunk cn.
func (k *chunkKernel) load(cn int) {
	if key := cn / k.loChunks; key != k.hiKey {
		k.fold(k.hi, 0, k.split, key)
		k.hiKey = key
	}
	if key := cn % k.loChunks; key != k.loKey {
		k.fold(k.lo, k.split, len(k.dims), key)
		k.loKey = key
	}
}

// fold fills dst with the merged table of dimensions [a, b) for the
// chunk whose coordinates along them are the mixed-radix digits of key.
// It grows the table one dimension at a time from the innermost, in
// place: row j of the widened table is the old table plus digit j's
// contribution, and row 0 overwrites the old table last.
func (k *chunkKernel) fold(dst []int32, a, b, key int) {
	dst[0] = 0
	size := 1
	for d := b - 1; d >= a; d-- {
		side := k.shape[d]
		start := key % k.chunksPer[d] * side
		key /= k.chunksPer[d]
		for j := side - 1; j >= 0; j-- {
			dj := k.digit(d, start+j)
			row := dst[j*size : (j+1)*size]
			for e, v := range dst[:size] {
				if dj < 0 || v < 0 {
					row[e] = min(dj, v) // outside wins over unselected
				} else {
					row[e] = dj + v
				}
			}
		}
		size *= side
	}
}

// digit is dimension d's contribution to the result index at base index
// base, or a sentinel.
func (k *chunkKernel) digit(d, base int) int32 {
	switch {
	case base >= k.dims[d]:
		return cellOutside
	case k.sel != nil && k.sel.masks[d] != nil && !k.sel.masks[d][base]:
		return cellUnselected
	case k.maps[d] == nil:
		return 0
	case k.maps[d][base] < 0:
		return cellUnselected // the overlay fold's table: no dimension row
	}
	return k.maps[d][base] * k.strides[d]
}

// errOutside reports a stored cell no coordinate can address: in a
// partial edge chunk a digit past the clipped extent, anywhere an offset
// past the chunk capacity.
func errOutside(cn int, off uint32) error {
	return fmt.Errorf("core: chunk %d: offset %d outside array bounds", cn, off)
}

// splitOffset splits a chunk offset into its high and low digits:
// off/loSize by the reciprocal magic, and the remainder.
func splitOffset(off uint32, magic uint64, loSize uint32) (uint64, uint32) {
	q, _ := bits.Mul64(magic, uint64(off))
	return q, off - uint32(q)*loSize
}

// consolidate folds every cell of chunk cn into the result cube,
// skipping cells a mask excludes. A cell outside the array bounds is an
// error: nothing on the read path has validated stored offsets against
// the clipped extent of an edge chunk before this.
func (k *chunkKernel) consolidate(cn int, cells []chunk.Cell) error {
	k.load(cn)
	hi, lo := k.hi, k.lo
	magic, loSize := k.loMagic, k.loSize
	aggs := k.res.aggs
	for i := range cells {
		off := cells[i].Offset
		q, r := splitOffset(off, magic, loSize)
		if q >= uint64(len(hi)) || r >= uint32(len(lo)) {
			return errOutside(cn, off)
		}
		idx := int(hi[q] + lo[r])
		if idx < 0 {
			if hi[q] == cellOutside || lo[r] == cellOutside {
				return errOutside(cn, off)
			}
			continue
		}
		aggs[idx].add(cells[i].Value)
	}
	return nil
}

// consolidatePairs is consolidate over a run of chunk cn's cells still
// in their stored chunk-offset layout, read in place from the buffer
// pool. A scan hands a chunk over as one or more such runs.
func (k *chunkKernel) consolidatePairs(cn int, p chunk.OffsetPairs) error {
	k.load(cn)
	hi, lo := k.hi, k.lo
	magic, loSize := k.loMagic, k.loSize
	aggs := k.res.aggs
	for len(p) > 0 {
		off, v, rest := p.Next()
		p = rest
		q, r := splitOffset(off, magic, loSize)
		if q >= uint64(len(hi)) || uint64(r) >= uint64(len(lo)) {
			return errOutside(cn, off)
		}
		idx := int(hi[q] + lo[r])
		if idx < 0 {
			if hi[q] == cellOutside || lo[r] == cellOutside {
				return errOutside(cn, off)
			}
			continue
		}
		aggs[idx].add(v)
	}
	return nil
}

// consolidateSelected folds the selected cells of chunk cn, one of the
// selection's candidate chunks. The §4.2 algorithm probes the
// offset-sorted cells once per element of the chunk's cross product;
// when that costs more binary-search steps than the chunk has cells, one
// masked pass over the cells is cheaper and consolidate takes it
// instead. Both the candidate count and the cell count are the chunk's
// own, so the choice needs no setting. Probed chunks count Probes and
// ProbeHits, filtered ones CellsScanned.
func (k *chunkKernel) consolidateSelected(cn int, cells []chunk.Cell, m *Metrics) error {
	if len(cells) == 0 {
		return nil
	}
	inLists, pos := k.inLists, k.inPos
	candidates := 1
	for d, rest := len(inLists)-1, cn; d >= 0; d-- {
		inLists[d] = k.sel.inChunk[d][rest%k.chunksPer[d]]
		rest /= k.chunksPer[d]
		candidates *= len(inLists[d])
		pos[d] = 0
	}
	if candidates*bits.Len(uint(len(cells)-1)) > len(cells) {
		m.CellsScanned += int64(len(cells))
		return k.consolidate(cn, cells)
	}
	k.load(cn)
	// The cross product in odometer order is ascending offsetInChunk, so
	// each search resumes where the previous one stopped.
	last := 0
	for {
		off := uint32(0)
		for d, l := range inLists {
			off = off*uint32(k.shape[d]) + uint32(l[pos[d]])
		}
		m.Probes++
		last = chunk.LowerBound(cells, last, off)
		if last < len(cells) && cells[last].Offset == off {
			m.ProbeHits++
			q, r := splitOffset(off, k.loMagic, k.loSize)
			// The lists hold only in-bounds selected indexes, so a
			// negative sum is a group table's unselected entry.
			if idx := k.hi[q] + k.lo[r]; idx >= 0 {
				k.res.aggs[idx].add(cells[last].Value)
			}
		}
		d := len(pos) - 1
		for ; d >= 0; d-- {
			pos[d]++
			if pos[d] < len(inLists[d]) {
				break
			}
			pos[d] = 0
		}
		if d < 0 {
			return nil
		}
	}
}

// chunkSelection is the per-query state of a §4.2 selection: each
// dimension's final index list, bucketed by chunk coordinate for the
// cross-product enumeration and flattened into a mask for the kernel.
type chunkSelection struct {
	// inChunk[d][c] lists, ascending, the in-chunk coordinates selected
	// inside chunk-slab c of dimension d (nil = none).
	inChunk [][][]int
	// masks[d][base] reports whether base is selected; nil for a
	// dimension selected whole.
	masks [][]bool
}

// newChunkSelection buckets the per-dimension sorted index lists.
func newChunkSelection(g *chunk.Geometry, lists [][]int) *chunkSelection {
	dims, shape := g.Dims(), g.ChunkShape()
	s := &chunkSelection{inChunk: make([][][]int, len(lists)), masks: make([][]bool, len(lists))}
	for d, list := range lists {
		side := shape[d]
		s.inChunk[d] = make([][]int, (dims[d]+side-1)/side)
		if len(list) < dims[d] {
			s.masks[d] = make([]bool, dims[d])
		}
		for _, idx := range list {
			s.inChunk[d][idx/side] = append(s.inChunk[d][idx/side], idx%side)
			if s.masks[d] != nil {
				s.masks[d][idx] = true
			}
		}
	}
	return s
}

// reaches reports whether chunk cn overlaps the selection's cross
// product, i.e. is one of its candidate chunks.
func (s *chunkSelection) reaches(cn int) bool {
	for d := len(s.inChunk) - 1; d >= 0; d-- {
		slabs := len(s.inChunk[d])
		if len(s.inChunk[d][cn%slabs]) == 0 {
			return false
		}
		cn /= slabs
	}
	return true
}

// candidateChunks returns, ascending, the numbers of the chunks that
// overlap the selection's cross product and that keep accepts (nil
// keeps all).
func (s *chunkSelection) candidateChunks(keep func(cn int) bool) []int {
	var out []int
	var walk func(d, prefix int)
	walk = func(d, prefix int) {
		if d == len(s.inChunk) {
			if keep == nil || keep(prefix) {
				out = append(out, prefix)
			}
			return
		}
		for c, in := range s.inChunk[d] {
			if len(in) > 0 {
				walk(d+1, prefix*len(s.inChunk[d])+c)
			}
		}
	}
	walk(0, 0)
	return out
}
