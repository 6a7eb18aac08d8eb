package chunk

import (
	"encoding/binary"
	"fmt"
)

// DiffSeqCodec is difference-sequence compression, after "Difference
// Sequence Compression of Multidimensional Databases" (Szépkúti): the
// sorted offsets of a chunk's valid cells are replaced by the difference
// sequence of their run boundaries. Consecutive offsets collapse into
// runs, so the position directory costs two entries per *run* rather
// than four bytes per *cell* — on clustered or dense chunks that beats
// the paper's chunk-offset pairs, while on scattered-sparse chunks
// (every cell its own run) the chunk-offset codec stays smaller. That
// crossover is exactly what the adaptive builder picks on.
//
// Encoded layout:
//
//	uvarint runCount
//	runCount × [gap][length]   fixed width-w little-endian, w = diffWidth(capacity)
//	n × 8-byte little-endian values, in ascending offset order
//
// gap is the hole before the run: start − end of the previous run (for
// the first run, the start offset itself). length ≥ 1, and runs are
// maximal, so gap ≥ 1 on every run after the first. Every difference is
// bounded by the chunk capacity, so the entries are stored at the fixed
// byte width that capacity needs instead of as varints: the directory
// size becomes a closed form of (runs, capacity) the adaptive selector
// can evaluate without encoding, and decode stays branch-light.
type DiffSeqCodec struct{}

// Name implements Codec.
func (DiffSeqCodec) Name() string { return CodecDiffSeq }

// diffWidth returns the fixed byte width of gap/length entries: the
// smallest width that can hold capacity itself (a full chunk is a single
// run of length == capacity).
func diffWidth(capacity int) int {
	w := 1
	for w < 8 && uint64(capacity) >= 1<<(8*w) {
		w++
	}
	return w
}

func putWidth(dst []byte, w int, v uint64) {
	for i := 0; i < w; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

func getWidth(src []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	return v
}

// countRuns counts maximal stretches of consecutive offsets in sorted
// cells.
func countRuns(cells []Cell) int {
	runs := 0
	for i := range cells {
		if i == 0 || cells[i].Offset != cells[i-1].Offset+1 {
			runs++
		}
	}
	return runs
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// diffSeqSize is the exact encoded size diff-seq produces for a chunk
// with the given sorted cells — the selection estimator's closed form.
func diffSeqSize(cells []Cell, capacity int) int {
	runs := countRuns(cells)
	return uvarintLen(uint64(runs)) + runs*2*diffWidth(capacity) + len(cells)*8
}

// Encode implements Codec.
func (DiffSeqCodec) Encode(cells []Cell, capacity int) ([]byte, error) {
	if err := checkSorted(cells, capacity); err != nil {
		return nil, err
	}
	runs := countRuns(cells)
	w := diffWidth(capacity)
	out := make([]byte, 0, uvarintLen(uint64(runs))+runs*2*w+len(cells)*8)
	out = binary.AppendUvarint(out, uint64(runs))
	prevEnd := uint64(0)
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j].Offset == cells[j-1].Offset+1 {
			j++
		}
		start := uint64(cells[i].Offset)
		var entry [16]byte
		putWidth(entry[:], w, start-prevEnd)
		putWidth(entry[w:], w, uint64(j-i))
		out = append(out, entry[:2*w]...)
		prevEnd = start + uint64(j-i)
		i = j
	}
	for _, c := range cells {
		out = binary.LittleEndian.AppendUint64(out, uint64(c.Value))
	}
	return out, nil
}

// Decode implements Codec. A first pass over the run directory
// validates it and sums the run lengths, so the destination is sized
// exactly before any cell is written — alloc is called at most once and
// the warm arena path stays allocation-free.
func (DiffSeqCodec) Decode(data []byte, capacity int, alloc CellAllocator) ([]Cell, error) {
	runs64, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("chunk: corrupt diff-seq run count")
	}
	w := diffWidth(capacity)
	if runs64 > uint64(capacity) {
		return nil, fmt.Errorf("chunk: diff-seq claims %d runs in capacity %d", runs64, capacity)
	}
	runs := int(runs64)
	if len(data)-sz < runs*2*w {
		return nil, fmt.Errorf("chunk: diff-seq run directory truncated (%d bytes)", len(data))
	}
	dir := data[sz : sz+runs*2*w]
	n := 0
	end := uint64(0) // one past the previous run's last offset
	for r := 0; r < runs; r++ {
		gap := getWidth(dir[r*2*w:], w)
		length := getWidth(dir[r*2*w+w:], w)
		if length == 0 {
			return nil, fmt.Errorf("chunk: diff-seq run %d is empty", r)
		}
		if r > 0 && gap == 0 {
			return nil, fmt.Errorf("chunk: diff-seq run %d not maximal", r)
		}
		end += gap + length
		if end > uint64(capacity) {
			return nil, fmt.Errorf("chunk: diff-seq run %d ends at %d, capacity %d", r, end, capacity)
		}
		n += int(length)
	}
	vals := data[sz+runs*2*w:]
	if len(vals) != n*8 {
		return nil, fmt.Errorf("chunk: diff-seq has %d value bytes for %d cells", len(vals), n)
	}
	if alloc == nil {
		alloc = heapCells
	}
	cells := alloc(n)
	i := 0
	end = 0
	for r := 0; r < runs; r++ {
		gap := getWidth(dir[r*2*w:], w)
		length := int(getWidth(dir[r*2*w+w:], w))
		off := uint32(end + gap)
		for k := 0; k < length; k++ {
			cells[i] = Cell{Offset: off, Value: int64(binary.LittleEndian.Uint64(vals[i*8:]))}
			off++
			i++
		}
		end += gap + uint64(length)
	}
	return cells, nil
}

// pickCodec selects the smallest-output codec for one chunk. Every
// candidate's encoded size is a closed form of the cell count, run
// count, and capacity, so this is an exact trial-encode without the
// encoding: chunk-offset costs 12 bytes per cell, diff-seq a run
// directory plus 8 bytes per cell, dense a bitmap plus 8 bytes per
// capacity slot. Ties prefer chunk-offset (binary-searchable, fastest
// decode), then diff-seq, then dense. LZW stays outside the adaptive
// set — it is the Paradise ablation baseline and its decoder allocates.
func pickCodec(cells []Cell, capacity int) Codec {
	best := Codec(OffsetCodec{})
	bestSize := len(cells) * offsetPairSize
	if n := diffSeqSize(cells, capacity); n < bestSize {
		best, bestSize = DiffSeqCodec{}, n
	}
	if n := (capacity+7)/8 + capacity*8; n < bestSize {
		best = DenseCodec{}
	}
	return best
}
