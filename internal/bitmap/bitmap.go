// Package bitmap implements word-aligned bitmaps, a run-length-encoded
// serialization, and the bitmap join index of §4.4 of the paper: one
// bitmap per (dimension attribute, value) pair over the fact table's
// tuple numbers, with bit t set when fact tuple t joins to a dimension
// tuple carrying that value. The relational selection algorithm fetches
// the bitmaps for the selected values, ANDs them, and drives a fact-file
// fetch with the result.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Package-level counters exported engine-wide (via obs CounterFuncs) as
// bitmap_logical_ops_total and bitmap_index_reads_total. They live here
// rather than on a struct because bitmaps are value-like objects created
// deep inside the selection algorithms, far from any registry.
var (
	logicalOps atomic.Int64
	indexReads atomic.Int64
)

// LogicalOps reports the cumulative count of bitwise combine operations
// (And, Or, AndNot, Not) performed process-wide.
func LogicalOps() int64 { return logicalOps.Load() }

// IndexReads reports the cumulative count of bitmaps fetched and decoded
// from stored bitmap join indexes process-wide.
func IndexReads() int64 { return indexReads.Load() }

// Bitmap is a fixed-length bitmap. The zero value is unusable; use New.
type Bitmap struct {
	n     uint64
	words []uint64
}

// New returns a bitmap of n bits, all zero.
func New(n uint64) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// WordsFor reports the word-slice length an n-bit bitmap needs, for
// callers that allocate the backing store themselves (see NewFrom).
func WordsFor(n uint64) int { return int((n + 63) / 64) }

// NewFrom wraps an externally allocated word slice as an n-bit bitmap.
// The words must be zeroed and exactly WordsFor(n) long; the bitmap
// takes ownership. This is how query-scoped bitmaps are carved from an
// arena instead of the GC heap.
func NewFrom(n uint64, words []uint64) *Bitmap {
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitmap: NewFrom(%d bits) wants %d words, got %d", n, WordsFor(n), len(words)))
	}
	return &Bitmap{n: n, words: words}
}

// Len reports the bitmap length in bits.
func (b *Bitmap) Len() uint64 { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i uint64) {
	if i >= b.n {
		panic(fmt.Sprintf("bitmap: Set(%d) on %d-bit bitmap", i, b.n))
	}
	b.words[i/64] |= 1 << (i % 64)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i uint64) {
	if i >= b.n {
		panic(fmt.Sprintf("bitmap: Clear(%d) on %d-bit bitmap", i, b.n))
	}
	b.words[i/64] &^= 1 << (i % 64)
}

// Test reports bit i.
func (b *Bitmap) Test(i uint64) bool {
	if i >= b.n {
		panic(fmt.Sprintf("bitmap: Test(%d) on %d-bit bitmap", i, b.n))
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// SetAll sets every bit. This seeds the ResultBitmap of the relational
// selection algorithm ("Set all bits of ResultBitmap to ones").
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// ClearAll zeroes every bit.
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trimTail zeroes the bits past n in the last word so Count and NextSet
// never see ghosts.
func (b *Bitmap) trimTail() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// And intersects b with o in place. Lengths must match.
func (b *Bitmap) And(o *Bitmap) {
	b.checkLen(o, "And")
	logicalOps.Add(1)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b in place. Lengths must match.
func (b *Bitmap) Or(o *Bitmap) {
	b.checkLen(o, "Or")
	logicalOps.Add(1)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot clears in b every bit set in o. Lengths must match.
func (b *Bitmap) AndNot(o *Bitmap) {
	b.checkLen(o, "AndNot")
	logicalOps.Add(1)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Not complements b in place.
func (b *Bitmap) Not() {
	logicalOps.Add(1)
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trimTail()
}

// ParallelAnd is And with the word loop split across workers, each
// combining a disjoint word range. One logical op is counted regardless
// of degree, so counters match the sequential path exactly; the result
// is bit-identical because every word is touched by exactly one worker.
// workers <= 1 (or a bitmap too small to split) runs sequentially.
func (b *Bitmap) ParallelAnd(o *Bitmap, workers int) {
	b.checkLen(o, "And")
	logicalOps.Add(1)
	b.parallelCombine(o, workers, func(dst, src []uint64) {
		for i := range dst {
			dst[i] &= src[i]
		}
	})
}

// parallelMinWords is the smallest word range worth a goroutine; below
// it the spawn overhead dwarfs the combine loop.
const parallelMinWords = 1 << 12

// parallelCombine applies op to disjoint word ranges of b and o, fanned
// out across up to workers goroutines.
func (b *Bitmap) parallelCombine(o *Bitmap, workers int, op func(dst, src []uint64)) {
	n := len(b.words)
	if max := n / parallelMinWords; workers > max {
		workers = max
	}
	if workers <= 1 {
		op(b.words, o.words)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			op(b.words[lo:hi], o.words[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

func (b *Bitmap) checkLen(o *Bitmap, op string) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: %s of %d-bit and %d-bit bitmaps", op, b.n, o.n))
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var c uint64
	for _, w := range b.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Equal reports whether b and o have the same length and bits.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the position of the first set bit >= from; ok is false
// when no set bit remains. It satisfies the fact file's BitIterator.
func (b *Bitmap) NextSet(from uint64) (uint64, bool) {
	if from >= b.n {
		return 0, false
	}
	wi := from / 64
	w := b.words[wi] >> (from % 64)
	if w != 0 {
		return from + uint64(bits.TrailingZeros64(w)), true
	}
	for wi++; wi < uint64(len(b.words)); wi++ {
		if b.words[wi] != 0 {
			return wi*64 + uint64(bits.TrailingZeros64(b.words[wi])), true
		}
	}
	return 0, false
}

// ForEach invokes fn for every set bit in ascending order; fn returning
// false stops the iteration.
func (b *Bitmap) ForEach(fn func(i uint64) bool) {
	for pos, ok := b.NextSet(0); ok; pos, ok = b.NextSet(pos + 1) {
		if !fn(pos) {
			return
		}
	}
}

// Marshal serializes the bitmap with word-level run-length encoding:
// the header is the bit length, followed by runs. A run is a control
// varint c: even c encodes c/2 zero words; odd c encodes (c+1)/2 literal
// words, whose bytes follow. Sparse bitmaps — the common case for
// low-cardinality attribute values — compress to a few bytes per run of
// empty words.
func (b *Bitmap) Marshal() []byte {
	out := make([]byte, 0, 16+len(b.words))
	out = binary.AppendUvarint(out, b.n)
	i := 0
	for i < len(b.words) {
		if b.words[i] == 0 {
			j := i
			for j < len(b.words) && b.words[j] == 0 {
				j++
			}
			out = binary.AppendUvarint(out, uint64(j-i)*2)
			i = j
		} else {
			j := i
			for j < len(b.words) && b.words[j] != 0 {
				j++
			}
			out = binary.AppendUvarint(out, uint64(j-i)*2-1)
			for ; i < j; i++ {
				out = binary.LittleEndian.AppendUint64(out, b.words[i])
			}
		}
	}
	return out
}

// Unmarshal parses a bitmap produced by Marshal. It sizes the bitmap
// from the encoding's header, so a caller decoding untrusted bytes
// should know the length to expect and OR-decode into a bitmap of it
// (OrDecoder) instead.
func Unmarshal(data []byte) (*Bitmap, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > math.MaxUint64-63 {
		return nil, fmt.Errorf("bitmap: corrupt header")
	}
	b := New(n)
	d := b.OrDecoder()
	if err := d.Feed(data); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return b, nil
}

// OrDecoder starts OR-ing a Marshal encoding into b as its bytes arrive:
// Feed it the encoding in pieces of any size (the pages of a blob walk,
// read in place), then Close it. Unmarshal is this decoder run on a new
// bitmap, so both make the same checks: the header must give b's length,
// no run may reach past the end, and the runs must cover every word.
// After an error b holds some of the encoding's bits and is not to be
// used.
func (b *Bitmap) OrDecoder() OrDecoder { return OrDecoder{b: b} }

// OrDecoder is the state of one OR-decode; see Bitmap.OrDecoder.
type OrDecoder struct {
	b      *Bitmap
	header bool   // the header has been read
	at     uint64 // the word the next run starts at
	lit    uint64 // literal words still to come in the current run
	part   [binary.MaxVarintLen64]byte
	held   int // bytes of a varint or literal word split across pieces
}

// Feed decodes the next piece of the encoding.
func (d *OrDecoder) Feed(p []byte) error {
	for len(p) > 0 {
		if d.held > 0 {
			var err error
			if p, err = d.finishPart(p); err != nil {
				return err
			}
			continue
		}
		if d.lit > 0 {
			k := min(d.lit, uint64(len(p)/8))
			w := d.b.words[d.at : d.at+k]
			for j := range w {
				w[j] |= binary.LittleEndian.Uint64(p[j*8:])
			}
			d.at, d.lit, p = d.at+k, d.lit-k, p[k*8:]
			if d.lit > 0 && len(p) > 0 {
				d.held = copy(d.part[:], p) // less than a word
				p = nil
			}
			continue
		}
		c, sz := binary.Uvarint(p)
		if sz == 0 { // the piece ends inside the varint
			d.held = copy(d.part[:], p)
			return nil
		}
		if sz < 0 {
			return d.corrupt()
		}
		p = p[sz:]
		if err := d.control(c); err != nil {
			return err
		}
	}
	return nil
}

// finishPart completes the varint or literal word held from the last
// piece with the first bytes of p, and returns the rest of p.
func (d *OrDecoder) finishPart(p []byte) ([]byte, error) {
	if d.lit > 0 {
		k := copy(d.part[d.held:8], p)
		if d.held += k; d.held < 8 {
			return p[k:], nil
		}
		d.b.words[d.at] |= binary.LittleEndian.Uint64(d.part[:8])
		d.at, d.lit, d.held = d.at+1, d.lit-1, 0
		return p[k:], nil
	}
	k := 0
	for k < len(p) && d.held < len(d.part) {
		d.part[d.held] = p[k]
		d.held, k = d.held+1, k+1
		if p[k-1] < 0x80 {
			break
		}
	}
	c, sz := binary.Uvarint(d.part[:d.held])
	if sz == 0 && d.held < len(d.part) {
		return p[k:], nil
	}
	d.held = 0
	if sz <= 0 { // an overflow, or ten bytes that never end
		return nil, d.corrupt()
	}
	return p[k:], d.control(c)
}

// control applies one varint: the header, then run controls. An even
// control c is c/2 zero words (nothing to OR); an odd one is c/2+1
// literal words, whose bytes follow.
func (d *OrDecoder) control(c uint64) error {
	left := uint64(len(d.b.words)) - d.at
	switch {
	case !d.header:
		if c != d.b.n {
			return fmt.Errorf("bitmap: encoding of %d bits, want %d", c, d.b.n)
		}
		d.header = true
	case c%2 == 0:
		if c/2 > left {
			return fmt.Errorf("bitmap: zero run past end")
		}
		d.at += c / 2
	default:
		if c/2+1 > left {
			return fmt.Errorf("bitmap: literal run past end")
		}
		d.lit = c/2 + 1
	}
	return nil
}

func (d *OrDecoder) corrupt() error {
	if !d.header {
		return fmt.Errorf("bitmap: corrupt header")
	}
	return fmt.Errorf("bitmap: corrupt run control")
}

// Close ends the decode: the encoding must have ended on a run boundary,
// with every word covered.
func (d *OrDecoder) Close() error {
	switch {
	case d.held > 0 && d.lit == 0, !d.header:
		return d.corrupt() // the encoding ends inside a varint, or has none
	case d.lit > 0:
		return fmt.Errorf("bitmap: literal run past end")
	case d.at != uint64(len(d.b.words)):
		return fmt.Errorf("bitmap: truncated: %d of %d words", d.at, len(d.b.words))
	}
	d.b.trimTail()
	return nil
}

// SizeBytes reports the in-memory footprint of the raw bitmap in bytes.
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.words)) * 8 }
