package bitmap

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Index is a bitmap join index on one dimension attribute: for each
// distinct attribute value it holds a bitmap over fact-table tuple
// numbers. The paper builds these ahead of query time ("this bitmap
// creation is done ahead of time, not as part of the query evaluation").
type Index struct {
	// NBits is the number of fact tuples each bitmap covers.
	NBits   uint64
	bitmaps map[string]*Bitmap
}

// NewIndex creates an empty index over nbits fact tuples.
func NewIndex(nbits uint64) *Index {
	return &Index{NBits: nbits, bitmaps: make(map[string]*Bitmap)}
}

// Add sets the bit for fact tuple pos under the given attribute value.
func (ix *Index) Add(value string, pos uint64) {
	bm, ok := ix.bitmaps[value]
	if !ok {
		bm = New(ix.NBits)
		ix.bitmaps[value] = bm
	}
	bm.Set(pos)
}

// Get returns the bitmap for value, or (nil, false) when no fact tuple
// carries it.
func (ix *Index) Get(value string) (*Bitmap, bool) {
	bm, ok := ix.bitmaps[value]
	return bm, ok
}

// Values returns the distinct indexed values in sorted order.
func (ix *Index) Values() []string {
	out := make([]string, 0, len(ix.bitmaps))
	for v := range ix.bitmaps {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumValues reports the number of distinct values indexed.
func (ix *Index) NumValues() int { return len(ix.bitmaps) }

// Serialized index layout — seekable, so a query can retrieve exactly
// the selected values' bitmaps (§4.5: "retrieve the bitmaps for the
// selected values") without loading the whole index:
//
//	[0:8)   nbits
//	[8:12)  value count
//	[12:16) payloadStart: absolute offset of the payload region
//	[16:payloadStart)  directory: per value, uvarint value length +
//	        value bytes + uvarint payload offset (relative) + uvarint
//	        payload length
//	[payloadStart:)    concatenated RLE bitmap encodings
const idxHeaderSize = 16

// Marshal serializes the whole index in the seekable layout.
func (ix *Index) Marshal() []byte {
	values := ix.Values()
	encs := make([][]byte, len(values))
	for i, v := range values {
		encs[i] = ix.bitmaps[v].Marshal()
	}
	// Directory.
	var dir []byte
	off := 0
	for i, v := range values {
		dir = binary.AppendUvarint(dir, uint64(len(v)))
		dir = append(dir, v...)
		dir = binary.AppendUvarint(dir, uint64(off))
		dir = binary.AppendUvarint(dir, uint64(len(encs[i])))
		off += len(encs[i])
	}
	out := make([]byte, idxHeaderSize, idxHeaderSize+len(dir)+off)
	binary.LittleEndian.PutUint64(out[0:8], ix.NBits)
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(values)))
	binary.LittleEndian.PutUint32(out[12:16], uint32(idxHeaderSize+len(dir)))
	out = append(out, dir...)
	for _, e := range encs {
		out = append(out, e...)
	}
	return out
}

// dirEntry locates one value's payload.
type dirEntry struct {
	off, n int
}

// parseHeader validates the fixed header.
func parseHeader(data []byte) (nbits uint64, count, payloadStart int, err error) {
	if len(data) < idxHeaderSize {
		return 0, 0, 0, fmt.Errorf("bitmap: index blob of %d bytes", len(data))
	}
	nbits = binary.LittleEndian.Uint64(data[0:8])
	count = int(binary.LittleEndian.Uint32(data[8:12]))
	payloadStart = int(binary.LittleEndian.Uint32(data[12:16]))
	if payloadStart < idxHeaderSize {
		return 0, 0, 0, fmt.Errorf("bitmap: corrupt index header (payload at %d)", payloadStart)
	}
	return nbits, count, payloadStart, nil
}

// parseDirectory parses count entries from the directory bytes.
func parseDirectory(dir []byte, count int) (map[string]dirEntry, error) {
	out := make(map[string]dirEntry, count)
	for i := 0; i < count; i++ {
		vlen, sz := binary.Uvarint(dir)
		if sz <= 0 || uint64(len(dir)-sz) < vlen {
			return nil, fmt.Errorf("bitmap: corrupt index directory entry %d", i)
		}
		dir = dir[sz:]
		v := string(dir[:vlen])
		dir = dir[vlen:]
		off, sz := binary.Uvarint(dir)
		if sz <= 0 {
			return nil, fmt.Errorf("bitmap: corrupt index offset for %q", v)
		}
		dir = dir[sz:]
		n, sz := binary.Uvarint(dir)
		if sz <= 0 {
			return nil, fmt.Errorf("bitmap: corrupt index length for %q", v)
		}
		dir = dir[sz:]
		out[v] = dirEntry{off: int(off), n: int(n)}
	}
	return out, nil
}

// UnmarshalIndex parses a complete index produced by Marshal.
func UnmarshalIndex(data []byte) (*Index, error) {
	nbits, count, payloadStart, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if payloadStart > len(data) {
		return nil, fmt.Errorf("bitmap: index directory truncated")
	}
	dir, err := parseDirectory(data[idxHeaderSize:payloadStart], count)
	if err != nil {
		return nil, err
	}
	ix := NewIndex(nbits)
	payload := data[payloadStart:]
	for v, e := range dir {
		if e.off+e.n > len(payload) {
			return nil, fmt.Errorf("bitmap: index payload for %q out of range", v)
		}
		bm, err := Unmarshal(payload[e.off : e.off+e.n])
		if err != nil {
			return nil, fmt.Errorf("bitmap: index bitmap %q: %w", v, err)
		}
		if bm.Len() != nbits {
			return nil, fmt.Errorf("bitmap: index bitmap %q has %d bits, want %d", v, bm.Len(), nbits)
		}
		ix.bitmaps[v] = bm
		indexReads.Add(1)
	}
	return ix, nil
}

// Save writes the index as a blob and returns its reference and the
// on-disk size in pages.
func (ix *Index) Save(lob *storage.LOBStore) (storage.LOBRef, int, error) {
	return lob.Write(ix.Marshal())
}

// LoadIndex reads a whole index blob written by Save.
func LoadIndex(lob *storage.LOBStore, ref storage.LOBRef) (*Index, error) {
	data, err := lob.Read(ref)
	if err != nil {
		return nil, err
	}
	return UnmarshalIndex(data)
}

// IndexReader reads single value bitmaps out of a stored index without
// loading the rest — the access pattern of the §4.5 algorithm.
type IndexReader struct {
	lob          *storage.LOBStore
	ref          storage.LOBRef
	NBits        uint64
	payloadStart int
	dir          map[string]dirEntry
}

// OpenIndexReader reads the index header and directory only.
func OpenIndexReader(lob *storage.LOBStore, ref storage.LOBRef) (*IndexReader, error) {
	hdr, err := lob.ReadRange(ref, 0, idxHeaderSize)
	if err != nil {
		return nil, err
	}
	nbits, count, payloadStart, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	dirBytes, err := lob.ReadRange(ref, idxHeaderSize, payloadStart-idxHeaderSize)
	if err != nil {
		return nil, err
	}
	dir, err := parseDirectory(dirBytes, count)
	if err != nil {
		return nil, err
	}
	return &IndexReader{lob: lob, ref: ref, NBits: nbits, payloadStart: payloadStart, dir: dir}, nil
}

// OrInto ORs value's bitmap into dst, decoding its run-length bytes
// straight from the pinned pages of the index blob; ok is false when no
// fact tuple carries the value. dst must be NBits long. After an error
// dst is not to be used.
func (r *IndexReader) OrInto(value string, dst *Bitmap) (ok bool, err error) {
	e, ok := r.dir[value]
	if !ok {
		return false, nil
	}
	if dst.n != r.NBits {
		return false, fmt.Errorf("bitmap: index of %d bits OR-ed into a %d-bit bitmap", r.NBits, dst.n)
	}
	indexReads.Add(1)
	logicalOps.Add(1)
	d := dst.OrDecoder()
	if err = r.lob.WalkRange(r.ref, r.payloadStart+e.off, e.n, d.Feed); err == nil {
		err = d.Close()
	}
	if err != nil {
		return false, fmt.Errorf("bitmap: index bitmap %q: %w", value, err)
	}
	return true, nil
}

// NumValues reports the number of values in the stored index.
func (r *IndexReader) NumValues() int { return len(r.dir) }
