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

	// The chunk being folded under a selection (begin): its selected
	// in-chunk coordinates per dimension, the odometer over their cross
	// product (the last dimension's entry indexes its list), and how the
	// chunk is read — seek the cross product's offset runs, or one masked
	// pass over every cell.
	inLists  [][]int
	inPos    []int
	runsDone bool
	next     [2]uint32 // the stretch after the run NextRun last yielded
	nextOK   bool
	seeking  bool
	seek     chunk.PairSeek
	cands    int   // the chunk's candidate cells: the cross product's size
	cells    int   // the chunk's cells
	hits     int64 // cells the seek found
	foldCell func(cn int, cells []chunk.Cell) error
	foldPair func(cn int, p chunk.OffsetPairs) error
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
	k.foldCell, k.foldPair = k.chunkCells, k.chunkPairs
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

// foldChunk reads chunk cn and aggregates its cells — the selected
// ones, when the kernel has a selection. VisitChunk decides the route: a
// clean chunk-offset chunk the decoded-chunk cache does not hold is
// folded from its pinned frames, any other chunk from ReadChunk's cells.
// Seeking chunks count Probes (their candidate cells) and ProbeHits,
// filtered ones CellsScanned.
func (k *chunkKernel) foldChunk(r *chunk.Reader, cn int, m *Metrics) error {
	m.ChunksRead++
	k.begin(cn, int(r.ChunkCells(cn)))
	if err := r.VisitChunk(cn, k.foldCell, k.foldPair); err != nil {
		return err
	}
	if k.seeking {
		m.Probes += int64(k.cands)
		m.ProbeHits += k.hits
	} else {
		m.CellsScanned += int64(k.cells)
	}
	return nil
}

// begin points the kernel at chunk cn, holding cells cells, and decides
// how a selection reads it. The §4.2 enumeration visits the chunk's
// cross product in ascending offset order as runs, one per contiguous
// stretch of the last dimension's list under each element of the
// leading dimensions' cross product, and binary-searches each run's
// start: about seeks x log2(cells) steps. When that exceeds the cells,
// one masked pass over them is cheaper. Both counts are the chunk's
// own, so the choice needs no setting.
func (k *chunkKernel) begin(cn, cells int) {
	k.cells, k.hits, k.seeking = cells, 0, false
	if k.sel == nil || cells == 0 {
		return
	}
	lists, pos := k.inLists, k.inPos
	k.cands = 1
	for d, rest := len(lists)-1, cn; d >= 0; d-- {
		lists[d] = k.sel.inChunk[d][rest%k.chunksPer[d]]
		rest /= k.chunksPer[d]
		k.cands *= len(lists[d])
		pos[d] = 0
	}
	if k.runsDone = k.cands == 0; k.runsDone {
		return
	}
	last := lists[len(lists)-1]
	runs := 1
	for i := 1; i < len(last); i++ {
		if last[i] != last[i-1]+1 {
			runs++
		}
	}
	seeks := k.cands / len(last) * runs
	if k.seeking = seeks*bits.Len(uint(cells-1)) <= cells; k.seeking {
		k.load(cn)
		k.seek = chunk.NewPairSeek(k)
		k.next[0], k.next[1], k.nextOK = k.stretch()
	}
}

// NextRun yields the current chunk's next run of selected offsets, in
// ascending order: stretches (see stretch) that meet end to end, as
// whole rows of the last dimension under consecutive coordinates of the
// one before do, form one run.
func (k *chunkKernel) NextRun() (lo, hi uint32, ok bool) {
	if !k.nextOK {
		return 0, 0, false
	}
	lo, hi = k.next[0], k.next[1]
	for {
		k.next[0], k.next[1], k.nextOK = k.stretch()
		if !k.nextOK || k.next[0] != hi {
			return lo, hi, true
		}
		hi = k.next[1]
	}
}

// stretch yields the current chunk's next stretch of selected offsets,
// in ascending order: the odometer over the leading dimensions' lists
// fixes its base, and it is one contiguous stretch of the last
// dimension's list.
func (k *chunkKernel) stretch() (lo, hi uint32, ok bool) {
	if k.runsDone {
		return 0, 0, false
	}
	lists, pos := k.inLists, k.inPos
	n := len(lists) - 1
	if pos[n] == len(lists[n]) {
		d := n - 1
		for ; d >= 0; d-- {
			if pos[d]++; pos[d] < len(lists[d]) {
				break
			}
			pos[d] = 0
		}
		if d < 0 {
			k.runsDone = true
			return 0, 0, false
		}
		pos[n] = 0
	}
	base := uint32(0)
	for d := 0; d < n; d++ {
		base = base*uint32(k.shape[d]) + uint32(lists[d][pos[d]])
	}
	base *= uint32(k.shape[n])
	last, j := lists[n], pos[n]
	e := j + 1
	for e < len(last) && last[e] == last[e-1]+1 {
		e++
	}
	pos[n] = e
	return base + uint32(last[j]), base + uint32(last[e-1]) + 1, true
}

// chunkCells folds a chunk handed over as decoded cells. Their count
// can differ from the directory's (an overlay merged in), so the
// selection's decision is taken again on it.
func (k *chunkKernel) chunkCells(cn int, cells []chunk.Cell) error {
	if len(cells) != k.cells {
		k.begin(cn, len(cells))
	}
	if !k.seeking {
		return k.consolidate(cn, cells)
	}
	at := 0
	for lo, hi, ok := k.NextRun(); ok && at < len(cells); lo, hi, ok = k.NextRun() {
		// The runs hold only in-bounds selected offsets, so a negative
		// sum is a group table's unselected entry.
		for at = chunk.LowerBound(cells, at, lo); at < len(cells) && cells[at].Offset < hi; at++ {
			k.hits++
			q, r := splitOffset(cells[at].Offset, k.loMagic, k.loSize)
			if idx := k.hi[q] + k.lo[r]; idx >= 0 {
				k.res.aggs[idx].add(cells[at].Value)
			}
		}
	}
	return nil
}

// chunkPairs folds one run of a chunk read in place: the pairs the seek
// keeps, or all of them under the selection's masks.
func (k *chunkKernel) chunkPairs(cn int, p chunk.OffsetPairs) error {
	if !k.seeking {
		return k.consolidatePairs(cn, p)
	}
	for len(p) > 0 {
		var in chunk.OffsetPairs
		if in, p = k.seek.Cut(p); len(in) > 0 {
			k.hits += int64(in.Len())
			if err := k.consolidatePairs(cn, in); err != nil {
				return err
			}
		}
	}
	return nil
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

// reached returns the chunks of the ascending list chunks that s
// reaches; a nil selection reaches them all, and gets chunks back.
func (s *chunkSelection) reached(chunks []int) []int {
	if s == nil {
		return chunks
	}
	var out []int
	for _, cn := range chunks {
		if s.reaches(cn) {
			out = append(out, cn)
		}
	}
	return out
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
