package chunk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/storage"
)

// ErrStopScan stops a chunk scan early without error.
var ErrStopScan = errors.New("chunk: stop scan")

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
// Store consults before paying the blob read + decode. Implementations
// must be safe for concurrent use (clones of one Store share the same
// cache); cell slices that cross the interface are shared and must be
// treated as read-only by everyone.
type DecodedCache interface {
	// GetDecoded returns the decoded, offset-sorted cells of the chunk
	// if cached.
	GetDecoded(chunkNum int) ([]Cell, bool)
	// PutDecoded offers freshly decoded cells for retention; the cache
	// takes ownership of the slice.
	PutDecoded(chunkNum int, cells []Cell)
}

// Store is a persistent chunked array: one blob per non-empty chunk plus
// a metadata directory blob. A Store is immutable once built; rebuilding
// writes a new Store.
type Store struct {
	bp   *storage.BufferPool
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

	// shared, when set, is a concurrent decoded-chunk cache sitting
	// above the buffer pool: ReadChunk probes it and offers what it
	// decodes; ScanChunks probes but never populates (scans are the
	// cache's scan-resistance case and keep their scratch-buffer path).
	shared DecodedCache

	// Scratch buffers reused by ScanChunks so a full-array scan does not
	// allocate per chunk.
	scratchEnc   []byte
	scratchCells []Cell

	// mem, when set via SetArena, supplies decode destinations for this
	// store's query-lifetime reads. scratchAlloc is the matching
	// CellAllocator, built once so the hot decode path does not allocate
	// a closure per chunk.
	mem          *arena.Arena
	scratchAlloc CellAllocator

	// overlay, when set via SetOverlay, is an immutable per-chunk delta
	// snapshot merged over the base cells on every read path, so a query
	// clone sees (base + deltas as of clone time) without the chunk
	// files changing. Clones share the snapshot (it is never mutated).
	overlay map[int][]OverlayCell

	// mergeScratch is the reused merge destination for the scan path
	// when a chunk has overlay cells; like scratchCells it is valid only
	// until the next read on this store.
	mergeScratch []Cell

	// carry holds a chunk-offset pair split across two pages while the
	// scan reads a chunk in place (walkPairs).
	carry [offsetPairSize]byte
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
		bp:      bp,
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
		ref, pages, err := s.lob.Write(enc)
		if err != nil {
			return nil, fmt.Errorf("chunk: write chunk %d: %w", cn, err)
		}
		s.entries[cn] = chunkEntry{ref: ref, bytes: uint64(len(enc)), cells: uint64(len(cells)), codec: codecID(codec)}
		s.totalPages += int64(pages)
		s.validCells += int64(len(cells))
	}

	// The directory records the store's total footprint including the
	// directory blob itself, so its own page count must be added before
	// marshaling. Updating the count can change the uvarint width and
	// hence the blob size, so iterate to a fixpoint (converges in at
	// most a couple of rounds).
	chunkPages := s.totalPages
	for {
		metaPages := int64(storage.BlobPages(len(s.marshalMeta())))
		if s.totalPages == chunkPages+metaPages {
			break
		}
		s.totalPages = chunkPages + metaPages
	}
	meta := s.marshalMeta()
	ref, _, err := s.lob.Write(meta)
	if err != nil {
		return nil, fmt.Errorf("chunk: write metadata: %w", err)
	}
	s.meta = ref
	return s, nil
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
		bp:         bp,
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

// ChunkCells reports the valid-cell count of one chunk without reading
// it. With an overlay attached the figure is an upper bound (an overlay
// entry may overwrite or delete a base cell): callers only use it to
// skip chunks with a zero bound, and a zero bound implies the merged
// chunk is empty. A nonzero bound over an actually-empty merge (all
// deletes) just costs one read that yields no cells.
func (s *Store) ChunkCells(chunkNum int) int64 {
	n := int64(s.entries[chunkNum].cells)
	if ov := s.overlay[chunkNum]; len(ov) > 0 {
		n += int64(len(ov))
	}
	return n
}

// Clone returns a Store sharing the immutable directory but with its own
// scratch buffers and carry, for use from another goroutine. The
// clone starts without an arena — each reader attaches its own.
func (s *Store) Clone() *Store {
	c := *s
	c.scratchEnc = nil
	c.scratchCells = nil
	c.mem = nil
	c.scratchAlloc = nil
	c.mergeScratch = nil
	return &c
}

// SetDecodedCache attaches a shared decoded-chunk cache (nil detaches).
// Clones of this Store copy the attachment.
func (s *Store) SetDecodedCache(d DecodedCache) { s.shared = d }

// SetArena attaches an arena supplying decode destinations for this
// store's reads (nil detaches). With an arena attached, cells returned by
// ReadChunk are carved from it and remain valid only until the next read
// on this store or the arena's Reset — whichever comes first — so attach
// arenas only to single-reader stores (per-query clones, per-worker
// clones) whose reads never outlive the query. Attaching clears the
// scratch buffers: they may reference a previous arena that the caller
// is about to recycle.
func (s *Store) SetArena(a *arena.Arena) {
	s.mem = a
	s.scratchEnc = nil
	s.scratchCells = nil
	if a == nil {
		s.scratchAlloc = nil
		return
	}
	s.scratchAlloc = func(n int) []Cell {
		if cap(s.scratchCells) >= n {
			return s.scratchCells[:n]
		}
		c := arena.Make[Cell](a, n)
		s.scratchCells = c
		return c
	}
}

// ReadChunk returns the decoded, offset-sorted cells of the chunk. Empty
// chunks decode to nil. The returned slice may be shared with the
// decoded-chunk cache; callers must treat it as read-only (every engine
// reader does — updates copy before merging).
func (s *Store) ReadChunk(chunkNum int) ([]Cell, error) {
	if chunkNum < 0 || chunkNum >= len(s.entries) {
		return nil, fmt.Errorf("chunk: chunk number %d out of [0,%d)", chunkNum, len(s.entries))
	}
	e := s.entries[chunkNum]
	ov := s.overlay[chunkNum]
	if !e.ref.Valid() && len(ov) == 0 {
		return nil, nil
	}
	if s.shared != nil {
		// Cached cells were merged with this store's overlay snapshot
		// before being offered; the cache's per-chunk version tag keeps
		// entries from crossing snapshots.
		if cells, ok := s.shared.GetDecoded(chunkNum); ok {
			return cells, nil
		}
	}
	if s.shared == nil && s.mem != nil {
		// With an arena and no shared cache, nothing downstream may retain
		// the cells, so point reads take the scratch-reuse path too: the
		// result is valid until the next read on this store.
		return s.readChunkScratch(chunkNum)
	}
	// A shared cache takes ownership of what it is offered (PutDecoded),
	// so anything that might reach it must live on the GC heap — never in
	// an arena that resets at end of query.
	var cells []Cell
	if e.ref.Valid() {
		data, err := s.lob.Read(e.ref)
		if err != nil {
			return nil, fmt.Errorf("chunk: read chunk %d: %w", chunkNum, err)
		}
		cells, err = s.entryCodec(chunkNum).Decode(data, s.geom.ChunkCapacity())
		if err != nil {
			return nil, fmt.Errorf("chunk: decode chunk %d: %w", chunkNum, err)
		}
		if uint64(len(cells)) != e.cells {
			return nil, fmt.Errorf("chunk: chunk %d decoded %d cells, directory says %d", chunkNum, len(cells), e.cells)
		}
	}
	if len(ov) > 0 {
		cells = mergeOverlayInto(make([]Cell, 0, len(cells)+len(ov)), cells, ov)
	}
	if s.shared != nil {
		s.shared.PutDecoded(chunkNum, cells)
	}
	return cells, nil
}

// VisitChunk reads chunk cn for a reader that takes it either way: a
// chunk-offset chunk with no overlay that the decoded-chunk cache does
// not hold goes to pairs as runs read in place from its pinned frames
// (walkPairs, no copy and no decode); any other chunk goes to cells as
// ReadChunk returns it, so the cache still takes what is decoded.
func (s *Store) VisitChunk(cn int, cells func(chunkNum int, c []Cell) error,
	pairs func(chunkNum int, p OffsetPairs) error) error {
	if cn >= 0 && cn < len(s.entries) && s.readsInPlace(cn) {
		if s.shared != nil {
			if c, ok := s.shared.GetDecoded(cn); ok {
				return cells(cn, c)
			}
		}
		return s.walkPairs(cn, pairs)
	}
	c, err := s.ReadChunk(cn)
	if err != nil {
		return err
	}
	return cells(cn, c)
}

// Get returns the value of the cell at coords and whether it is valid. A
// chunk read in place is searched where it sits (OffsetPairs.Seek), and
// the walk still checks every pair of the chunk.
func (s *Store) Get(coords []int) (int64, bool, error) {
	if err := s.geom.CheckCoords(coords); err != nil {
		return 0, false, err
	}
	cn, off := s.geom.Locate(coords)
	p := pointSeek{off: uint32(off)}
	err := s.VisitChunk(cn, p.cells, p.pairs)
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

// ScanChunks invokes fn for every non-empty chunk in ascending chunk
// order with its decoded cells. The cells slice is reused between calls
// and is valid only during the callback. Return ErrStopScan from fn to
// stop early.
func (s *Store) ScanChunks(fn func(chunkNum int, cells []Cell) error) error {
	return s.ScanChunkRange(context.Background(), 0, len(s.entries), fn, nil)
}

// ScanChunkRange scans the non-empty chunks with lo <= chunkNum < hi, in
// ascending order, with the same callback contract as ScanChunks. The
// bounds are clamped to the directory; the context is checked before
// every chunk read. Parallel consolidation partitions the chunk
// directory into disjoint ranges, one per worker, each on its own Store
// clone.
//
// A chunk in the decoded-chunk cache goes to fn as cached (read-only,
// merged with this snapshot's overlay); a miss does not populate the
// cache, so one full scan cannot flush the probe working set. With pairs
// set, a miss on a chunk-offset chunk with no overlay is not decoded at
// all: pairs receives its cells in offset order as one or more runs read
// in place from the pinned frames (walkPairs), each borrowed like a page
// of LOBStore.Walk.
func (s *Store) ScanChunkRange(ctx context.Context, lo, hi int, fn func(chunkNum int, cells []Cell) error,
	pairs func(chunkNum int, p OffsetPairs) error) error {
	for cn := max(lo, 0); cn < min(hi, len(s.entries)); cn++ {
		if !s.entries[cn].ref.Valid() && len(s.overlay[cn]) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		cells, cached := []Cell(nil), false
		if s.shared != nil {
			cells, cached = s.shared.GetDecoded(cn)
		}
		var err error
		switch {
		case cached:
			err = fn(cn, cells)
		case pairs != nil && s.readsInPlace(cn):
			err = s.walkPairs(cn, pairs)
		default:
			if cells, err = s.readChunkScratch(cn); err == nil {
				err = fn(cn, cells)
			}
		}
		if errors.Is(err, ErrStopScan) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readsInPlace reports whether a scan can take chunk cn straight from
// the frames it sits in: a non-empty chunk-offset chunk with no overlay.
func (s *Store) readsInPlace(cn int) bool {
	_, offset := s.entryCodec(cn).(OffsetCodec)
	return offset && s.entries[cn].cells > 0 && len(s.overlay[cn]) == 0
}

// walkPairs hands chunk cn, a chunk-offset chunk with no overlay cells,
// to fn as runs of pairs read in place from the pinned buffer-pool
// frames, with every check the scratch read makes of a decoded chunk.
func (s *Store) walkPairs(cn int, fn func(chunkNum int, p OffsetPairs) error) error {
	e := s.entries[cn]
	w := pairWalk{cn: cn, capacity: s.geom.ChunkCapacity(), prev: -1, carry: &s.carry}
	var inner error // the callback's own error: a corrupt pair, or fn's
	err := s.lob.Walk(e.ref, func(page []byte, stamp *atomic.Uint64) error {
		inner = w.page(page, stamp, fn)
		return inner
	})
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

// readChunkScratch reads and decodes a chunk into the store's scratch
// buffers. The result is invalidated by the next readChunkScratch call.
func (s *Store) readChunkScratch(cn int) ([]Cell, error) {
	e := s.entries[cn]
	ov := s.overlay[cn]
	var cells []Cell
	if e.ref.Valid() {
		data, err := s.lob.ReadInto(e.ref, s.scratchEnc)
		if err != nil {
			return nil, fmt.Errorf("chunk: read chunk %d: %w", cn, err)
		}
		s.scratchEnc = data
		codec := s.entryCodec(cn)
		if s.scratchAlloc != nil {
			// Arena-backed scratch: grows from the arena on the first chunks,
			// then reuses the high-water slice — zero allocations once warm.
			cells, err = codec.DecodeAlloc(data, s.geom.ChunkCapacity(), s.scratchAlloc)
		} else if oc, ok := codec.(OffsetCodec); ok {
			cells, err = oc.DecodeInto(data, s.geom.ChunkCapacity(), s.scratchCells)
			if err == nil {
				s.scratchCells = cells
			}
		} else {
			cells, err = codec.Decode(data, s.geom.ChunkCapacity())
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: decode chunk %d: %w", cn, err)
		}
		if uint64(len(cells)) != e.cells {
			return nil, fmt.Errorf("chunk: chunk %d decoded %d cells, directory says %d", cn, len(cells), e.cells)
		}
	}
	if len(ov) > 0 {
		// Merge into the reused merge buffer, never in place: cells may
		// alias the decode scratch slice the next read reuses.
		s.mergeScratch = mergeOverlayInto(s.mergeScratch[:0], cells, ov)
		cells = s.mergeScratch
	}
	return cells, nil
}
