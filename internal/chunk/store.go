package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/storage"
)

// ErrDirFormatV1 is what opening a store whose directory has no format
// header returns: the v1 layout (one store-wide codec, untagged entries),
// which no build writes any more and this one does not read.
var ErrDirFormatV1 = errors.New("chunk: store directory format v1 is not supported (this build reads v2)")

// chunkEntry is the per-chunk metadata: the blob holding the encoded
// chunk, its encoded length, its valid-cell count, and the ID of the
// codec that encoded it. The paper (§3.3) keeps exactly this directory
// ("we use some meta data to hold the OID and the length of each
// chunk"); the codec tag is the v2 addition that lets each chunk carry
// the encoding the adaptive builder picked for it.
type chunkEntry struct {
	ref   storage.LOBRef
	bytes uint64
	cells uint64
	codec uint8
}

// DecodedCache is an optional process-level cache of decoded chunks a
// Reader consults before paying the blob read + decode. Entries are
// tagged with the chunk's delta version, which the reader takes from its
// View, so an entry never crosses snapshots. Implementations must be
// safe for concurrent use (every reader of a statement shares one);
// cell slices that cross the interface are shared and must be treated
// as read-only by everyone.
type DecodedCache interface {
	// GetDecoded returns the decoded, offset-sorted cells of the chunk
	// if cached under version.
	GetDecoded(chunkNum int, version uint64) ([]Cell, bool)
	// PutDecoded offers freshly decoded cells for retention under
	// version; the cache takes ownership of the slice.
	PutDecoded(chunkNum int, version uint64, cells []Cell)
}

// Store is a persistent chunked array: one blob per non-empty chunk plus
// a metadata directory blob — the paper's per-array directory of each
// chunk's OID and length (§3.3). A Store is immutable: Builder.Write,
// Open and Update return it complete, and no field is written after, so
// any number of goroutines read it at once, each through its own Reader.
// Rebuilding writes a new Store.
type Store struct {
	lob  *storage.LOBStore
	geom *Geometry
	// codec is the forced store-wide codec, or nil for an adaptive
	// store whose chunks carry their own tags. Reads always go through
	// each entry's tag; codec only governs how updates re-encode.
	codec   Codec
	entries []chunkEntry
	meta    storage.LOBRef

	totalPages int64
	validCells int64
}

// View is what the readers of one statement read a Store under: the
// pending delta overlay of one instant, the per-chunk versions of the
// same instant, and the decoded-chunk cache those versions tag. Its maps
// are immutable and shared by every reader. The zero View reads the
// base cells alone, uncached.
type View struct {
	// Overlay holds per-chunk cell states merged over the base cells on
	// every read: each slice offset-sorted and duplicate-free. The
	// overlay wins on equal offsets, and Delete entries drop the cell.
	Overlay map[int][]OverlayCell
	// Versions holds each chunk's delta version (absent = 0): the tag of
	// what a reader takes from Cache and offers it.
	Versions map[int]uint64
	// Cache, when set, is a decoded-chunk cache above the buffer pool:
	// ReadChunk probes it and offers what it decodes.
	Cache DecodedCache
}

// Reader reads one Store under one View for one goroutine: it owns the
// scratch its reads reuse, carved from the arena it was made with. Make
// one per goroutine (Store.Reader) over the one shared Store; a Reader
// is not safe for concurrent use.
type Reader struct {
	s *Store
	v View

	// scratchAlloc, set when the reader has an arena, supplies decode
	// destinations from it; built once so the hot decode path does not
	// allocate a closure per chunk. scratchEnc and mergeScratch are the
	// reused read buffer and merge destination of the same reads.
	scratchAlloc CellAllocator
	scratchEnc   []byte
	mergeScratch []Cell

	// carry holds a chunk-offset pair split across two pages while a
	// chunk is read in place (walkPairs); allocated at the first split.
	carry *[offsetPairSize]byte
}

// Builder accumulates cells and writes them out as a Store.
type Builder struct {
	geom  *Geometry
	codec Codec
	cells map[int][]Cell // chunk number -> unsorted cells
	n     int64
}

// NewBuilder creates a builder for the given geometry and codec. A nil
// codec selects adaptive mode: each chunk is trial-sized under every
// candidate codec at write time and tagged with the winner.
func NewBuilder(geom *Geometry, codec Codec) *Builder {
	return &Builder{geom: geom, codec: codec, cells: make(map[int][]Cell)}
}

// Add records a valid cell at coords. Coordinates are validated;
// duplicate cells are detected when the store is written.
func (b *Builder) Add(coords []int, value int64) error {
	if err := b.geom.CheckCoords(coords); err != nil {
		return err
	}
	cn, off := b.geom.Locate(coords)
	b.cells[cn] = append(b.cells[cn], Cell{Offset: uint32(off), Value: value})
	b.n++
	return nil
}

// AddAt records a valid cell by (chunk number, offset), for callers that
// already computed the location.
func (b *Builder) AddAt(chunkNum, offset int, value int64) error {
	if chunkNum < 0 || chunkNum >= b.geom.NumChunks() {
		return fmt.Errorf("chunk: chunk number %d out of [0,%d)", chunkNum, b.geom.NumChunks())
	}
	if offset < 0 || offset >= b.geom.ChunkCapacity() || !b.geom.ValidOffset(chunkNum, offset) {
		return fmt.Errorf("chunk: offset %d invalid in chunk %d", offset, chunkNum)
	}
	b.cells[chunkNum] = append(b.cells[chunkNum], Cell{Offset: uint32(offset), Value: value})
	b.n++
	return nil
}

// NumCells reports how many cells have been added.
func (b *Builder) NumCells() int64 { return b.n }

// Write sorts, encodes, and persists every chunk through bp, returning
// the resulting Store. Chunks are written in ascending chunk-number
// order, so with an appending volume the physical layout matches chunk
// order — the property the selection algorithm's chunk-ordered
// cross-product enumeration exploits (§4.2).
func (b *Builder) Write(bp *storage.BufferPool) (*Store, error) {
	s := &Store{
		lob:     storage.NewLOBStore(bp),
		geom:    b.geom,
		codec:   b.codec,
		entries: make([]chunkEntry, b.geom.NumChunks()),
	}
	for cn := 0; cn < b.geom.NumChunks(); cn++ {
		cells := b.cells[cn]
		if len(cells) == 0 {
			s.entries[cn] = chunkEntry{ref: storage.InvalidLOBRef}
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].Offset < cells[j].Offset })
		for i := 1; i < len(cells); i++ {
			if cells[i].Offset == cells[i-1].Offset {
				return nil, fmt.Errorf("chunk: duplicate cell at chunk %d offset %d", cn, cells[i].Offset)
			}
		}
		codec := b.codec
		if codec == nil {
			codec = pickCodec(cells, b.geom.ChunkCapacity())
		}
		enc, err := codec.Encode(cells, b.geom.ChunkCapacity())
		if err != nil {
			return nil, fmt.Errorf("chunk: encode chunk %d: %w", cn, err)
		}
		ref, _, err := s.lob.WriteExtent(enc)
		if err != nil {
			return nil, fmt.Errorf("chunk: write chunk %d: %w", cn, err)
		}
		s.entries[cn] = chunkEntry{ref: ref, bytes: uint64(len(enc)), cells: uint64(len(cells)), codec: codecID(codec)}
	}
	if err := s.writeMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeMeta derives the store's totals from its entries and writes its
// directory blob. Chunks an update did not touch share their extents
// with the store they came from, and count toward both footprints.
func (s *Store) writeMeta() error {
	var chunkPages int64
	s.validCells = 0
	for _, e := range s.entries {
		if e.ref.Valid() {
			chunkPages += int64(storage.ExtentPages(int(e.bytes)))
			s.validCells += int64(e.cells)
		}
	}
	// The directory records the store's total footprint including the
	// directory blob itself, so its own page count must be added before
	// marshaling. Updating the count can change the uvarint width and
	// hence the blob size, so iterate to a fixpoint (converges in at
	// most a couple of rounds).
	s.totalPages = chunkPages
	for {
		metaPages := int64(storage.BlobPages(len(s.marshalMeta())))
		if s.totalPages == chunkPages+metaPages {
			break
		}
		s.totalPages = chunkPages + metaPages
	}
	ref, _, err := s.lob.Write(s.marshalMeta())
	if err != nil {
		return fmt.Errorf("chunk: write metadata: %w", err)
	}
	s.meta = ref
	return nil
}

// storeFormatVersion is the directory format this build reads and
// writes: a 0 sentinel (the unversioned v1 layout started with its
// geometry's dimension count, which is never 0) | version | geometry |
// codec mode ("adaptive" or a forced codec) | totals | per-chunk {ref,
// bytes, cells, codec ID}.
const storeFormatVersion = 2

// modeName is the codec mode recorded in the directory: the forced
// codec's name, or CodecAdaptive for per-chunk selection.
func (s *Store) modeName() string {
	if s.codec == nil {
		return CodecAdaptive
	}
	return s.codec.Name()
}

// marshalMeta serializes the store directory.
func (s *Store) marshalMeta() []byte {
	out := binary.AppendUvarint(nil, 0) // v2 sentinel
	out = binary.AppendUvarint(out, storeFormatVersion)
	out = append(out, s.geom.Marshal()...)
	name := s.modeName()
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(s.totalPages))
	out = binary.AppendUvarint(out, uint64(s.validCells))
	for _, e := range s.entries {
		out = binary.AppendUvarint(out, uint64(e.ref.First))
		out = binary.AppendUvarint(out, e.bytes)
		out = binary.AppendUvarint(out, e.cells)
		out = binary.AppendUvarint(out, uint64(e.codec))
	}
	return out
}

// storeDir is a parsed store directory.
type storeDir struct {
	geom       *Geometry
	codec      Codec // nil = adaptive
	totalPages int64
	validCells int64
	entries    []chunkEntry
}

// unmarshalStoreDir parses a store directory blob. It is the pure half
// of Open, separated so corrupt-input handling can be fuzzed without a
// buffer pool.
func unmarshalStoreDir(data []byte) (*storeDir, error) {
	first, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("chunk: corrupt store directory header")
	}
	if first != 0 {
		// No sentinel: a v1 blob starts with its dimension count, which
		// NewGeometry guarantees is never 0.
		return nil, ErrDirFormatV1
	}
	data = data[sz:]
	v, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("chunk: corrupt store format version")
	}
	if v != storeFormatVersion {
		return nil, fmt.Errorf("chunk: store directory format v%d (this build reads v%d)", v, storeFormatVersion)
	}
	data = data[sz:]
	d := &storeDir{}
	geom, used, err := UnmarshalGeometry(data)
	if err != nil {
		return nil, err
	}
	d.geom = geom
	data = data[used:]
	nameLen, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < nameLen {
		return nil, fmt.Errorf("chunk: corrupt codec name")
	}
	data = data[sz:]
	name := string(data[:nameLen])
	if name != CodecAdaptive {
		if d.codec, err = CodecByName(name); err != nil {
			return nil, err
		}
	}
	data = data[nameLen:]
	totalPages, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("chunk: corrupt page count")
	}
	d.totalPages = int64(totalPages)
	data = data[sz:]
	validCells, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("chunk: corrupt cell count")
	}
	d.validCells = int64(validCells)
	data = data[sz:]
	// Bound the directory allocation by the bytes actually present: every
	// entry takes at least four uvarints, so a blob whose geometry claims
	// more chunks than its tail could possibly encode is corrupt, not a
	// request for a huge allocation.
	if geom.NumChunks() <= 0 || uint64(geom.NumChunks()) > uint64(len(data))/4 {
		return nil, fmt.Errorf("chunk: directory truncated: %d chunks, %d bytes of entries",
			geom.NumChunks(), len(data))
	}
	d.entries = make([]chunkEntry, geom.NumChunks())
	for i := range d.entries {
		ref, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("chunk: corrupt entry %d", i)
		}
		data = data[sz:]
		nbytes, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("chunk: corrupt entry %d length", i)
		}
		data = data[sz:]
		ncells, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("chunk: corrupt entry %d cells", i)
		}
		data = data[sz:]
		id, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("chunk: corrupt entry %d codec", i)
		}
		data = data[sz:]
		if _, err := codecByID(id); err != nil {
			return nil, fmt.Errorf("chunk: entry %d: %w", i, err)
		}
		d.entries[i] = chunkEntry{ref: storage.LOBRef{First: storage.PageID(ref)}, bytes: nbytes, cells: ncells, codec: uint8(id)}
	}
	return d, nil
}

// Open loads a Store from its metadata blob reference.
func Open(bp *storage.BufferPool, meta storage.LOBRef) (*Store, error) {
	lob := storage.NewLOBStore(bp)
	data, err := lob.Read(meta)
	if err != nil {
		return nil, err
	}
	d, err := unmarshalStoreDir(data)
	if err != nil {
		return nil, fmt.Errorf("open chunk store, directory blob at page %d: %w", uint64(meta.First), err)
	}
	return &Store{
		lob:        lob,
		geom:       d.geom,
		codec:      d.codec,
		entries:    d.entries,
		meta:       meta,
		totalPages: d.totalPages,
		validCells: d.validCells,
	}, nil
}

// Meta returns the metadata blob reference identifying this store.
func (s *Store) Meta() storage.LOBRef { return s.meta }

// Geometry returns the store's geometry.
func (s *Store) Geometry() *Geometry { return s.geom }

// CodecName returns the store's codec mode: the forced codec's name, or
// "adaptive" when each chunk carries its own tag.
func (s *Store) CodecName() string { return s.modeName() }

// Adaptive reports whether codec selection is per-chunk.
func (s *Store) Adaptive() bool { return s.codec == nil }

// entryCodec returns the codec that encoded the given chunk.
func (s *Store) entryCodec(cn int) Codec { return codecTable[s.entries[cn].codec] }

// ChunkCodecName returns the per-chunk codec tag, or "" for an empty
// chunk.
func (s *Store) ChunkCodecName(cn int) string {
	if cn < 0 || cn >= len(s.entries) || !s.entries[cn].ref.Valid() {
		return ""
	}
	return s.entryCodec(cn).Name()
}

// CodecStat aggregates the chunks one codec encoded.
type CodecStat struct {
	Chunks       int64
	EncodedBytes int64
}

// CodecStats breaks the store down by per-chunk codec tag — the
// planner's and the metrics endpoint's view of the codec mix.
func (s *Store) CodecStats() map[string]CodecStat {
	out := make(map[string]CodecStat)
	for cn, e := range s.entries {
		if !e.ref.Valid() {
			continue
		}
		st := out[s.entryCodec(cn).Name()]
		st.Chunks++
		st.EncodedBytes += int64(e.bytes)
		out[s.entryCodec(cn).Name()] = st
	}
	return out
}

// NumValidCells reports the number of stored (valid) cells.
func (s *Store) NumValidCells() int64 { return s.validCells }

// SizeBytes reports the on-disk footprint of the store in bytes.
func (s *Store) SizeBytes() int64 { return s.totalPages * storage.PageSize }

// EncodedBytes reports the total encoded chunk payload in bytes — the
// paper's compressed-array size metric, before page rounding.
func (s *Store) EncodedBytes() int64 {
	var n int64
	for _, e := range s.entries {
		n += int64(e.bytes)
	}
	return n
}

// Reader returns a reader of s under v. With mem set and no cache in v,
// the cells ReadChunk returns live in the reader's scratch, carved from
// mem: valid until the reader's next read or mem's Reset, whichever
// comes first. Otherwise they are on the GC heap.
func (s *Store) Reader(v View, mem *arena.Arena) Reader {
	r := Reader{s: s, v: v}
	if mem != nil {
		r.scratchAlloc = scratchCells(mem)
	}
	return r
}

// scratchCells is a CellAllocator that reuses one slice carved from
// mem, growing it only when a chunk needs more cells.
func scratchCells(mem *arena.Arena) CellAllocator {
	var cells []Cell
	return func(n int) []Cell {
		if cap(cells) >= n {
			return cells[:n]
		}
		cells = arena.Make[Cell](mem, n)
		return cells
	}
}

// ChunkCells reports the valid-cell count of one chunk without reading
// it. With an overlay pending the figure is an upper bound (an overlay
// entry may overwrite or delete a base cell): callers only use it to
// skip chunks with a zero bound, and a zero bound implies the merged
// chunk is empty. A nonzero bound over an actually-empty merge (all
// deletes) just costs one read that yields no cells.
func (r *Reader) ChunkCells(chunkNum int) int64 {
	return int64(r.s.entries[chunkNum].cells) + int64(len(r.v.Overlay[chunkNum]))
}

// ReadChunk returns the decoded, offset-sorted cells of the chunk,
// merged with the overlay. Empty chunks decode to nil. The returned
// slice may be shared with the decoded-chunk cache; callers must treat
// it as read-only (every engine reader does — updates copy before
// merging). With an arena and no cache, the cells live in the reader's
// scratch and are valid until its next read; otherwise they are on the
// GC heap.
func (r *Reader) ReadChunk(chunkNum int) ([]Cell, error) {
	s := r.s
	if chunkNum < 0 || chunkNum >= len(s.entries) {
		return nil, fmt.Errorf("chunk: chunk number %d out of [0,%d)", chunkNum, len(s.entries))
	}
	e := s.entries[chunkNum]
	ov := r.v.Overlay[chunkNum]
	if !e.ref.Valid() && len(ov) == 0 {
		return nil, nil
	}
	cache := r.v.Cache
	var version uint64
	if cache != nil {
		// Cached cells were merged with the overlay of the instant their
		// version names, so the tag keeps entries from crossing views.
		version = r.v.Versions[chunkNum]
		if cells, ok := cache.GetDecoded(chunkNum, version); ok {
			return cells, nil
		}
	}
	// A cache takes ownership of what it is offered (PutDecoded), so
	// anything that might reach it must live on the GC heap — never in
	// an arena that resets at end of query. Without one, nothing
	// downstream may retain the cells, and an arena-backed read reuses
	// the scratch buffers: zero allocations once warm.
	scratch := cache == nil && r.scratchAlloc != nil
	var cells []Cell
	if e.ref.Valid() {
		var data []byte
		var err error
		var alloc CellAllocator
		if scratch {
			data, err = s.lob.ReadExtent(e.ref, int(e.bytes), r.scratchEnc)
			r.scratchEnc, alloc = data, r.scratchAlloc
		} else {
			data, err = s.lob.ReadExtent(e.ref, int(e.bytes), nil)
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: read chunk %d: %w", chunkNum, err)
		}
		cells, err = s.entryCodec(chunkNum).Decode(data, s.geom.ChunkCapacity(), alloc)
		if err != nil {
			return nil, fmt.Errorf("chunk: decode chunk %d: %w", chunkNum, err)
		}
		if uint64(len(cells)) != e.cells {
			return nil, fmt.Errorf("chunk: chunk %d decoded %d cells, directory says %d", chunkNum, len(cells), e.cells)
		}
	}
	if len(ov) > 0 {
		if scratch {
			// Into the reused merge buffer, never in place: cells may
			// alias the decode scratch the next read reuses.
			r.mergeScratch = mergeOverlayInto(r.mergeScratch[:0], cells, ov)
			cells = r.mergeScratch
		} else {
			cells = mergeOverlayInto(make([]Cell, 0, len(cells)+len(ov)), cells, ov)
		}
	}
	if cache != nil {
		cache.PutDecoded(chunkNum, version, cells)
	}
	return cells, nil
}

// VisitChunk reads chunk cn for a reader that takes it either way: a
// chunk-offset chunk with no overlay that the decoded-chunk cache does
// not hold goes to pairs as runs read in place from its pinned frames
// (walkPairs, no copy and no decode); any other chunk goes to cells as
// ReadChunk returns it, so the cache still takes what is decoded.
func (r *Reader) VisitChunk(cn int, cells func(chunkNum int, c []Cell) error,
	pairs func(chunkNum int, p OffsetPairs) error) error {
	if cn >= 0 && cn < len(r.s.entries) && r.readsInPlace(cn) {
		if r.v.Cache != nil {
			if c, ok := r.v.Cache.GetDecoded(cn, r.v.Versions[cn]); ok {
				return cells(cn, c)
			}
		}
		return r.walkPairs(cn, pairs)
	}
	c, err := r.ReadChunk(cn)
	if err != nil {
		return err
	}
	return cells(cn, c)
}

// Get returns the value of the cell at coords and whether it is valid. A
// chunk read in place is searched where it sits (OffsetPairs.Seek), and
// the walk still checks every pair of the chunk.
func (r *Reader) Get(coords []int) (int64, bool, error) {
	if err := r.s.geom.CheckCoords(coords); err != nil {
		return 0, false, err
	}
	cn, off := r.s.geom.Locate(coords)
	p := pointSeek{off: uint32(off)}
	err := r.VisitChunk(cn, p.cells, p.pairs)
	return p.value, p.found, err
}

// pointSeek looks one offset up in a chunk, whichever way VisitChunk
// hands the chunk over.
type pointSeek struct {
	off   uint32
	value int64
	found bool
}

func (p *pointSeek) cells(_ int, c []Cell) error {
	p.value, p.found = SearchCells(c, p.off)
	return nil
}

func (p *pointSeek) pairs(_ int, run OffsetPairs) error {
	if p.found || binary.LittleEndian.Uint32(run[len(run)-offsetPairSize:]) < p.off {
		return nil // found already, or every pair of run lies before it
	}
	if q := run.Seek(p.off); len(q) > 0 {
		if off, v, _ := q.Next(); off == p.off {
			p.value, p.found = v, true
		}
	}
	return nil
}

// readsInPlace reports whether VisitChunk can take chunk cn straight from
// the frames it sits in: a non-empty chunk-offset chunk with no overlay.
func (r *Reader) readsInPlace(cn int) bool {
	_, offset := r.s.entryCodec(cn).(OffsetCodec)
	return offset && r.s.entries[cn].cells > 0 && len(r.v.Overlay[cn]) == 0
}

// walkPairs hands chunk cn, a chunk-offset chunk with no overlay cells,
// to fn as runs of pairs read in place from the pinned buffer-pool
// frames, with every check ReadChunk makes of a decoded chunk.
func (r *Reader) walkPairs(cn int, fn func(chunkNum int, p OffsetPairs) error) error {
	s := r.s
	e := s.entries[cn]
	w := pairWalk{cn: cn, capacity: s.geom.ChunkCapacity(), prev: -1, carry: r.carry}
	var inner error // the callback's own error: a corrupt pair, or fn's
	err := s.lob.WalkExtent(e.ref, int(e.bytes), func(page []byte, stamp *atomic.Uint64) error {
		inner = w.page(page, stamp, fn)
		return inner
	})
	r.carry = w.carry
	if inner != nil {
		return inner
	} else if err != nil {
		return fmt.Errorf("chunk: read chunk %d: %w", cn, err)
	}
	if w.held > 0 {
		return fmt.Errorf("chunk: decode chunk %d: offset-coded chunk of %d bytes", cn, w.pairs*offsetPairSize+w.held)
	}
	if uint64(w.pairs) != e.cells {
		return fmt.Errorf("chunk: chunk %d decoded %d cells, directory says %d", cn, w.pairs, e.cells)
	}
	return nil
}
