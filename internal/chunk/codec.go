package chunk

import (
	"bytes"
	"compress/lzw"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
)

// Cell is one valid array cell within a chunk: its offsetInChunk and its
// measure value.
type Cell struct {
	Offset uint32
	Value  int64
}

// CellAllocator returns a cell slice of exactly n elements for a decoder
// to fill. It lets the caller choose where decoded cells live — a
// per-query arena, a reused scratch buffer, or the GC heap — without the
// codec knowing. The returned slice's contents may be arbitrary; the
// decoder overwrites every element.
type CellAllocator func(n int) []Cell

// heapCells is the default allocator: ordinary GC-heap slices.
func heapCells(n int) []Cell { return make([]Cell, n) }

// Codec encodes and decodes the valid cells of one chunk. Encode requires
// cells sorted by ascending offset with no duplicates (the paper sorts
// each chunk's cells by offset so probes can binary search); Decode
// returns cells in that same order.
type Codec interface {
	// Name identifies the codec in chunk store metadata.
	Name() string
	// Encode serializes cells for a chunk with the given cell capacity.
	Encode(cells []Cell, capacity int) ([]byte, error)
	// Decode parses data produced by Encode with the same capacity into
	// a slice alloc supplies (nil means the GC heap). Decoders size the
	// slice exactly — they count cells before allocating — so alloc is
	// called at most once.
	Decode(data []byte, capacity int, alloc CellAllocator) ([]Cell, error)
}

// CodecByName returns the codec registered under name. CodecAdaptive is
// not a codec — it is the builder mode that picks one per chunk — so it
// is rejected here; configuration surfaces map it to a nil Codec.
func CodecByName(name string) (Codec, error) {
	switch name {
	case CodecOffset:
		return OffsetCodec{}, nil
	case CodecDense:
		return DenseCodec{}, nil
	case CodecLZW:
		return LZWCodec{}, nil
	case CodecDiffSeq:
		return DiffSeqCodec{}, nil
	default:
		return nil, fmt.Errorf("chunk: unknown codec %q", name)
	}
}

// Codec names.
const (
	CodecOffset  = "chunk-offset"
	CodecDense   = "dense"
	CodecLZW     = "lzw"
	CodecDiffSeq = "diff-seq"
	// CodecAdaptive is the builder mode that picks a codec per chunk by
	// exact size arithmetic; it appears in store metadata and
	// configuration, never as a Codec value.
	CodecAdaptive = "adaptive"
)

// codecTable maps the per-chunk codec IDs persisted in the v2 store
// directory to codecs. Append only — the IDs are on disk.
var codecTable = []Codec{OffsetCodec{}, DenseCodec{}, LZWCodec{}, DiffSeqCodec{}}

// codecID returns c's persisted ID.
func codecID(c Codec) uint8 {
	for i, t := range codecTable {
		if t.Name() == c.Name() {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("chunk: codec %q has no persisted ID", c.Name()))
}

// codecByID resolves a persisted per-chunk codec ID.
func codecByID(id uint64) (Codec, error) {
	if id >= uint64(len(codecTable)) {
		return nil, fmt.Errorf("chunk: unknown codec id %d", id)
	}
	return codecTable[id], nil
}

// checkSorted validates Encode's input contract.
func checkSorted(cells []Cell, capacity int) error {
	for i, c := range cells {
		if int(c.Offset) >= capacity {
			return fmt.Errorf("chunk: cell offset %d >= capacity %d", c.Offset, capacity)
		}
		if i > 0 && cells[i-1].Offset >= c.Offset {
			return fmt.Errorf("chunk: cells not strictly sorted at %d (%d then %d)",
				i, cells[i-1].Offset, c.Offset)
		}
	}
	return nil
}

// OffsetCodec is the paper's chunk-offset compression (§3.3): each valid
// cell is stored as a fixed-width (offsetInChunk, value) pair, sorted by
// offset. Fixed width keeps the pairs binary-searchable directly.
type OffsetCodec struct{}

// Name implements Codec.
func (OffsetCodec) Name() string { return CodecOffset }

const offsetPairSize = 4 + 8

// OffsetPairs is a run of chunk-offset pairs in their stored layout:
// offsetPairSize bytes each, a little-endian uint32 offsetInChunk then a
// little-endian int64 value. The frame-resident scan hands runs of them
// to the kernel straight from the buffer pool, with no decoded copy.
type OffsetPairs []byte

// Len reports the number of whole pairs in the run.
func (p OffsetPairs) Len() int { return len(p) / offsetPairSize }

// Next returns the first pair's offset and value and the pairs after
// it. p must not be empty.
func (p OffsetPairs) Next() (uint32, int64, OffsetPairs) {
	return binary.LittleEndian.Uint32(p), int64(binary.LittleEndian.Uint64(p[4:offsetPairSize])), p[offsetPairSize:]
}

// Seek returns the pairs of p from the first whose offset is >= offset
// on: the §4.2 binary search, run on pairs where they sit. p's offsets
// must be ascending, as pairWalk has checked them to be. The search
// gallops from the front (1, 2, 4, … pairs ahead) before it bisects, so
// a seek to a near offset, the common step from one run to the next,
// costs the log of the distance, not of the page.
func (p OffsetPairs) Seek(offset uint32) OffsetPairs {
	n, lo, hi := p.Len(), 0, 0
	for step := 1; hi < n && binary.LittleEndian.Uint32(p[hi*offsetPairSize:]) < offset; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, n); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if binary.LittleEndian.Uint32(p[mid*offsetPairSize:]) < offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p[lo*offsetPairSize:]
}

// Runs yields a chunk's selected offsets as ascending, disjoint,
// non-empty ranges [lo, hi); ok is false once they are exhausted, and on
// every call after.
type Runs interface {
	NextRun() (lo, hi uint32, ok bool)
}

// PairSeek keeps, of a chunk handed over in offset order as runs of
// pairs of any length (a walk's pages and carries), exactly the pairs
// whose offsets fall in the ranges its Runs yield. Each range's start is
// binary-searched inside the run that holds it, resuming across runs, so
// the pairs between ranges are never looked at.
type PairSeek struct {
	runs   Runs
	lo, hi uint32
	state  uint8 // 0: no range taken yet; 1: in [lo, hi); 2: ranges exhausted
}

// NewPairSeek starts a seek over the ranges r yields.
func NewPairSeek(r Runs) PairSeek { return PairSeek{runs: r} }

func (s *PairSeek) advance() {
	var ok bool
	if s.lo, s.hi, ok = s.runs.NextRun(); ok {
		s.state = 1
	} else {
		s.state = 2
	}
}

// Cut splits p, the chunk's next pairs, into in — the pairs of the
// current range, from the first at or past its start — and rest, the
// pairs after in. Once p reaches past the current range, the next range
// becomes current. Callers cut until rest is empty; after the last range
// in and rest are both empty.
func (s *PairSeek) Cut(p OffsetPairs) (in, rest OffsetPairs) {
	if s.state == 0 {
		s.advance()
	}
	if s.state == 2 {
		return nil, nil
	}
	p = p.Seek(s.lo)
	if rest = p.Seek(s.hi); len(rest) > 0 {
		s.advance()
	}
	return p[:len(p)-len(rest)], rest
}

// Encode implements Codec.
func (OffsetCodec) Encode(cells []Cell, capacity int) ([]byte, error) {
	if err := checkSorted(cells, capacity); err != nil {
		return nil, err
	}
	out := make([]byte, len(cells)*offsetPairSize)
	for i, c := range cells {
		binary.LittleEndian.PutUint32(out[i*offsetPairSize:], c.Offset)
		binary.LittleEndian.PutUint64(out[i*offsetPairSize+4:], uint64(c.Value))
	}
	return out, nil
}

// Decode implements Codec.
func (OffsetCodec) Decode(data []byte, capacity int, alloc CellAllocator) ([]Cell, error) {
	if len(data)%offsetPairSize != 0 {
		return nil, fmt.Errorf("chunk: offset-coded chunk of %d bytes", len(data))
	}
	if alloc == nil {
		alloc = heapCells
	}
	cells := alloc(len(data) / offsetPairSize)
	if err := decodeOffsetPairs(data, capacity, cells); err != nil {
		return nil, err
	}
	return cells, nil
}

// decodeOffsetPairs fills cells from len(cells) fixed-width pairs,
// validating in the same pass what checkSorted validates for Encode:
// offsets strictly ascending and, since the last is then the largest,
// below capacity.
func decodeOffsetPairs(data []byte, capacity int, cells []Cell) error {
	prev := int64(-1)
	for i := range cells {
		p := data[i*offsetPairSize:]
		_ = p[offsetPairSize-1]
		off := binary.LittleEndian.Uint32(p)
		if int64(off) <= prev {
			return fmt.Errorf("chunk: cells not strictly sorted at %d (%d then %d)", i, prev, off)
		}
		prev = int64(off)
		cells[i] = Cell{Offset: off, Value: int64(binary.LittleEndian.Uint64(p[4:]))}
	}
	if prev >= int64(capacity) {
		return fmt.Errorf("chunk: cell offset %d >= capacity %d", prev, capacity)
	}
	return nil
}

// pairWalk is decodeOffsetPairs for a chunk read in place: it takes the
// chunk's bytes page by page and forwards them as runs of whole pairs,
// checking across the whole chunk what decodeOffsetPairs checks, before
// any pair reaches the consumer. A pair split across two pages is
// reassembled in carry and forwarded as a run of one. carry, nil until
// the first split, is heap memory the walk's owner may keep for its next
// walk: a run handed to the consumer must not point into the walk itself.
type pairWalk struct {
	cn, capacity int
	prev         int64 // the last offset forwarded; -1 before the first
	pairs        int   // pairs forwarded
	carry        *[offsetPairSize]byte
	held         int // bytes of a split pair held in carry
}

// page forwards the pairs that the next page of the chunk completes.
// stamp is the stamp of the page's frame (LOBStore.WalkExtent). Once the
// page's whole pairs pass the order check, it is set to a tag of what
// that check rested on besides the bytes: the capacity, how many carry
// bytes came first and how many bytes were checked. A page whose frame
// holds the tag has not changed since, and skips the per-pair check.
func (w *pairWalk) page(b []byte, stamp *atomic.Uint64, fn func(cn int, p OffsetPairs) error) error {
	k := 0
	if w.held > 0 {
		k = copy(w.carry[w.held:], b)
		if w.held += k; w.held < offsetPairSize {
			return nil
		}
		w.held, b = 0, b[k:]
		if err := w.forward(w.carry[:], false, fn); err != nil {
			return err
		}
	}
	whole := len(b) - len(b)%offsetPairSize
	if whole > 0 {
		tag := uint64(w.capacity)<<24 | uint64(k)<<16 | uint64(whole)
		checked := stamp.Load() == tag
		if err := w.forward(OffsetPairs(b[:whole]), checked, fn); err != nil {
			return err
		}
		if !checked {
			stamp.Store(tag)
		}
	}
	if rest := b[whole:]; len(rest) > 0 {
		if w.carry == nil {
			w.carry = new([offsetPairSize]byte)
		}
		w.held = copy(w.carry[:], rest)
	}
	return nil
}

// forward hands p to fn once its offsets are checked to continue the
// chunk's strictly ascending run below capacity. When checked, p's own
// order was checked before, and only its first offset is compared with
// the run before it.
func (w *pairWalk) forward(p OffsetPairs, checked bool, fn func(cn int, p OffsetPairs) error) error {
	prev, q := w.prev, p
	if checked && int64(binary.LittleEndian.Uint32(p)) > prev {
		prev, q = int64(binary.LittleEndian.Uint32(p[len(p)-offsetPairSize:])), nil
	}
	// Eight pairs per branch: a difference below 1 anywhere makes the OR
	// negative, and the pair-at-a-time loop then finds and reports it.
	for ; len(q) >= 8*offsetPairSize; q = q[8*offsetPairSize:] {
		a := int64(binary.LittleEndian.Uint32(q))
		b := int64(binary.LittleEndian.Uint32(q[offsetPairSize:]))
		c := int64(binary.LittleEndian.Uint32(q[2*offsetPairSize:]))
		d := int64(binary.LittleEndian.Uint32(q[3*offsetPairSize:]))
		e := int64(binary.LittleEndian.Uint32(q[4*offsetPairSize:]))
		f := int64(binary.LittleEndian.Uint32(q[5*offsetPairSize:]))
		g := int64(binary.LittleEndian.Uint32(q[6*offsetPairSize:]))
		h := int64(binary.LittleEndian.Uint32(q[7*offsetPairSize:]))
		if (a-prev-1)|(b-a-1)|(c-b-1)|(d-c-1)|(e-d-1)|(f-e-1)|(g-f-1)|(h-g-1) < 0 {
			break
		}
		prev = h
	}
	for ; len(q) > 0; q = q[offsetPairSize:] {
		off := int64(binary.LittleEndian.Uint32(q))
		if off <= prev {
			return fmt.Errorf("chunk: decode chunk %d: cells not strictly sorted at %d (%d then %d)",
				w.cn, w.pairs+p.Len()-len(q)/offsetPairSize, prev, off)
		}
		prev = off
	}
	if prev >= int64(w.capacity) {
		return fmt.Errorf("chunk: decode chunk %d: cell offset %d >= capacity %d", w.cn, prev, w.capacity)
	}
	w.prev = prev
	w.pairs += p.Len()
	return fn(w.cn, p)
}

// LowerBound returns the position of the first cell at or after from
// whose offset is >= offset (len(cells) when there is none). Probes of
// ascending offsets pass the previous result as from, so each search
// covers only the cells not yet passed.
func LowerBound(cells []Cell, from int, offset uint32) int {
	lo, hi := from, len(cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cells[mid].Offset < offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchCells binary-searches offset-sorted cells for the given offset,
// as the selection algorithm probes chunks (§4.2). It returns the cell
// value and whether a valid cell exists at that offset.
func SearchCells(cells []Cell, offset uint32) (int64, bool) {
	if i := LowerBound(cells, 0, offset); i < len(cells) && cells[i].Offset == offset {
		return cells[i].Value, true
	}
	return 0, false
}

// DenseCodec materializes every cell slot of the chunk: a validity bitmap
// (capacity bits) followed by capacity fixed-width values. It is the
// uncompressed baseline of §3.2 — storage is allocated "for every array
// cell, regardless of whether the cell contains valid data or not".
type DenseCodec struct{}

// Name implements Codec.
func (DenseCodec) Name() string { return CodecDense }

// Encode implements Codec.
func (DenseCodec) Encode(cells []Cell, capacity int) ([]byte, error) {
	if err := checkSorted(cells, capacity); err != nil {
		return nil, err
	}
	bmBytes := (capacity + 7) / 8
	out := make([]byte, bmBytes+capacity*8)
	for _, c := range cells {
		out[c.Offset/8] |= 1 << (c.Offset % 8)
		binary.LittleEndian.PutUint64(out[bmBytes+int(c.Offset)*8:], uint64(c.Value))
	}
	return out, nil
}

// Decode implements Codec. A first pass popcounts the validity
// bitmap so the destination is sized exactly before any cell is read.
func (DenseCodec) Decode(data []byte, capacity int, alloc CellAllocator) ([]Cell, error) {
	bmBytes := (capacity + 7) / 8
	if len(data) != bmBytes+capacity*8 {
		return nil, fmt.Errorf("chunk: dense chunk of %d bytes, want %d", len(data), bmBytes+capacity*8)
	}
	n := 0
	for _, b := range data[:bmBytes] {
		n += bits.OnesCount8(b)
	}
	if alloc == nil {
		alloc = heapCells
	}
	cells := alloc(n)
	i := 0
	for off := 0; off < capacity; off++ {
		if data[off/8]&(1<<(off%8)) != 0 {
			cells[i] = Cell{
				Offset: uint32(off),
				Value:  int64(binary.LittleEndian.Uint64(data[bmBytes+off*8:])),
			}
			i++
		}
	}
	return cells[:i], nil
}

// LZWCodec stores the dense representation compressed with LZW — the
// compression Paradise applied to its generic multi-dimensional arrays
// [Wel84], which the OLAP Array ADT replaced with chunk-offset
// compression. Kept as an ablation codec.
type LZWCodec struct{}

// Name implements Codec.
func (LZWCodec) Name() string { return CodecLZW }

// Encode implements Codec.
func (LZWCodec) Encode(cells []Cell, capacity int) ([]byte, error) {
	dense, err := DenseCodec{}.Encode(cells, capacity)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := lzw.NewWriter(&buf, lzw.LSB, 8)
	if _, err := w.Write(dense); err != nil {
		return nil, fmt.Errorf("chunk: lzw encode: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("chunk: lzw close: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode implements Codec. The decoded cell slice comes from alloc
// like every other codec; only the intermediate dense image lives on the
// GC heap. It is read at its exact expected size (a valid stream is
// always bmBytes+capacity*8 bytes), never with io.ReadAll, so corrupt
// input cannot balloon the decode — any overrun or shortfall is an
// error.
func (LZWCodec) Decode(data []byte, capacity int, alloc CellAllocator) ([]Cell, error) {
	r := lzw.NewReader(bytes.NewReader(data), lzw.LSB, 8)
	defer r.Close()
	want := (capacity+7)/8 + capacity*8
	dense := make([]byte, want)
	if _, err := io.ReadFull(r, dense); err != nil {
		return nil, fmt.Errorf("chunk: lzw decode: %w", err)
	}
	var trailer [1]byte
	switch _, err := io.ReadFull(r, trailer[:]); err {
	case io.EOF:
		// Exactly the dense image: the valid case.
	case nil:
		return nil, fmt.Errorf("chunk: lzw stream longer than the %d-byte dense image", want)
	default:
		return nil, fmt.Errorf("chunk: lzw decode: %w", err)
	}
	return DenseCodec{}.Decode(dense, capacity, alloc)
}
