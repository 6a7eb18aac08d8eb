// Package chunk implements the tiled (chunked) n-dimensional array layout
// of §3.1-3.3 of the paper: geometry math mapping cell coordinates to
// (chunk number, offset-in-chunk) pairs, three chunk codecs (the paper's
// chunk-offset compression, a dense codec, and the LZW codec Paradise
// used for generic arrays), and a persistent chunk store over the blob
// layer with a chunk-number-indexed metadata directory.
package chunk

import (
	"encoding/binary"
	"fmt"
)

// Geometry describes a chunked n-dimensional array: the array dimensions
// and the chunk shape. Chunks tile the array; edge chunks may be partial
// when a dimension is not divisible by the chunk side, but offsets within
// a chunk are always computed with full-chunk strides so a cell's
// offsetInChunk is independent of where the chunk sits.
type Geometry struct {
	dims       []int // array size per dimension
	chunkShape []int // chunk size per dimension
	chunksPer  []int // chunks per dimension
	cellStride []int // row-major strides over dims
	chunkCap   int   // cells per full chunk
	numChunks  int
}

// NewGeometry validates and builds a Geometry. Every dimension and chunk
// side must be positive, and chunk sides must not exceed the dimension.
func NewGeometry(dims, chunkShape []int) (*Geometry, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("chunk: zero-dimensional geometry")
	}
	if len(dims) != len(chunkShape) {
		return nil, fmt.Errorf("chunk: %d dims but %d chunk sides", len(dims), len(chunkShape))
	}
	g := &Geometry{
		dims:       append([]int(nil), dims...),
		chunkShape: append([]int(nil), chunkShape...),
		chunksPer:  make([]int, len(dims)),
		cellStride: make([]int, len(dims)),
		chunkCap:   1,
		numChunks:  1,
	}
	for i, d := range dims {
		c := chunkShape[i]
		if d <= 0 {
			return nil, fmt.Errorf("chunk: dimension %d has size %d", i, d)
		}
		if c <= 0 || c > d {
			return nil, fmt.Errorf("chunk: chunk side %d on dimension %d of size %d", c, i, d)
		}
		g.chunksPer[i] = (d + c - 1) / c
		g.numChunks *= g.chunksPer[i]
		g.chunkCap *= c
	}
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		g.cellStride[i] = stride
		stride *= dims[i]
	}
	return g, nil
}

// NumDims returns the number of dimensions.
func (g *Geometry) NumDims() int { return len(g.dims) }

// Dims returns a copy of the array dimensions.
func (g *Geometry) Dims() []int { return append([]int(nil), g.dims...) }

// ChunkShape returns a copy of the chunk shape.
func (g *Geometry) ChunkShape() []int { return append([]int(nil), g.chunkShape...) }

// NumChunks returns the total chunk count.
func (g *Geometry) NumChunks() int { return g.numChunks }

// ChunkCapacity returns the number of cells in a full chunk — the offset
// space each chunk's offsetInChunk values are drawn from.
func (g *Geometry) ChunkCapacity() int { return g.chunkCap }

// NumCells returns the total logical cell count of the array.
func (g *Geometry) NumCells() int64 {
	n := int64(1)
	for _, d := range g.dims {
		n *= int64(d)
	}
	return n
}

// CheckCoords validates that coords addresses a cell.
func (g *Geometry) CheckCoords(coords []int) error {
	if len(coords) != len(g.dims) {
		return fmt.Errorf("chunk: %d coordinates for %d dimensions", len(coords), len(g.dims))
	}
	for i, c := range coords {
		if c < 0 || c >= g.dims[i] {
			return fmt.Errorf("chunk: coordinate %d = %d out of [0,%d)", i, c, g.dims[i])
		}
	}
	return nil
}

// Locate maps cell coordinates to (chunk number, offset in chunk), the
// pair the paper's chunk-offset compression stores. Coordinates must be
// valid (see CheckCoords); Locate does not revalidate on the hot path.
func (g *Geometry) Locate(coords []int) (chunkNum int, offset int) {
	for i, c := range coords {
		chunkNum = chunkNum*g.chunksPer[i] + c/g.chunkShape[i]
		offset = offset*g.chunkShape[i] + c%g.chunkShape[i]
	}
	return chunkNum, offset
}

// ChunkOf returns the chunk number containing the cell at coords.
func (g *Geometry) ChunkOf(coords []int) int {
	n, _ := g.Locate(coords)
	return n
}

// Decompose maps (chunk number, offset in chunk) back to cell
// coordinates, filling dst (which must have NumDims entries) and
// returning it; dst may be nil.
func (g *Geometry) Decompose(chunkNum, offset int, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(g.dims))
	}
	for i := len(g.dims) - 1; i >= 0; i-- {
		cs := g.chunkShape[i]
		dst[i] = (chunkNum%g.chunksPer[i])*cs + offset%cs
		chunkNum /= g.chunksPer[i]
		offset /= cs
	}
	return dst
}

// ValidOffset reports whether offset addresses a cell inside the array
// bounds for the given chunk — false only in partial edge chunks, for
// offsets that fall past the clipped extent.
func (g *Geometry) ValidOffset(chunkNum, offset int) bool {
	for i := len(g.dims) - 1; i >= 0; i-- {
		cs := g.chunkShape[i]
		coord := (chunkNum%g.chunksPer[i])*cs + offset%cs
		if coord >= g.dims[i] {
			return false
		}
		chunkNum /= g.chunksPer[i]
		offset /= cs
	}
	return true
}

// Equal reports whether two geometries describe the same layout.
func (g *Geometry) Equal(o *Geometry) bool {
	if len(g.dims) != len(o.dims) {
		return false
	}
	for i := range g.dims {
		if g.dims[i] != o.dims[i] || g.chunkShape[i] != o.chunkShape[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (g *Geometry) String() string {
	return fmt.Sprintf("geometry(dims=%v chunk=%v chunks=%d)", g.dims, g.chunkShape, g.numChunks)
}

// Marshal serializes the geometry.
func (g *Geometry) Marshal() []byte {
	out := binary.AppendUvarint(nil, uint64(len(g.dims)))
	for i := range g.dims {
		out = binary.AppendUvarint(out, uint64(g.dims[i]))
		out = binary.AppendUvarint(out, uint64(g.chunkShape[i]))
	}
	return out
}

// UnmarshalGeometry parses a geometry produced by Marshal and returns it
// along with the number of bytes consumed.
func UnmarshalGeometry(data []byte) (*Geometry, int, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("chunk: corrupt geometry header")
	}
	used := sz
	// Each dimension contributes at least two bytes (dim + chunk side),
	// so a header claiming more dimensions than the remaining bytes could
	// hold is corrupt — reject it before allocating.
	if n > uint64(len(data)-used)/2 {
		return nil, 0, fmt.Errorf("chunk: geometry claims %d dimensions in %d bytes", n, len(data)-used)
	}
	dims := make([]int, n)
	shape := make([]int, n)
	for i := range dims {
		d, sz := binary.Uvarint(data[used:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("chunk: corrupt geometry dim %d", i)
		}
		used += sz
		c, sz := binary.Uvarint(data[used:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("chunk: corrupt geometry chunk side %d", i)
		}
		used += sz
		dims[i] = int(d)
		shape[i] = int(c)
	}
	g, err := NewGeometry(dims, shape)
	if err != nil {
		return nil, 0, err
	}
	return g, used, nil
}

// DefaultChunkShape picks a chunk shape for the given dimensions: each
// side is min(dim, 20) except the last, which is min(dim, 10). For the
// paper's 4-d test arrays (40×40×40×{50,100,1000}) this yields exactly
// the chunk counts reported in §5.5.1: 40, 80, and 800 chunks.
func DefaultChunkShape(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		side := 20
		if i == len(dims)-1 {
			side = 10
		}
		if side > d {
			side = d
		}
		out[i] = side
	}
	return out
}
