package chunk

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// CellChange is one cell mutation for Store.Update: set the cell at
// Offset to Value, or delete it.
type CellChange struct {
	Offset uint32
	Value  int64
	Delete bool
}

// Update produces a new Store with the changes applied, copy-on-write:
// only chunks with changes are re-encoded and written; untouched chunks
// share their blobs with the receiver (blobs are immutable, so sharing
// is safe). The receiver remains a valid, unchanged snapshot — this is
// the chunk-level half of the engine's shadow-version update path.
func (s *Store) Update(changes map[int][]CellChange) (*Store, error) {
	out := &Store{
		bp:         s.bp,
		lob:        s.lob,
		geom:       s.geom,
		codec:      s.codec,
		entries:    append([]chunkEntry(nil), s.entries...),
		cacheChunk: -1,
	}
	for cn, chs := range changes {
		if cn < 0 || cn >= len(out.entries) {
			return nil, fmt.Errorf("chunk: update to chunk %d of %d", cn, len(out.entries))
		}
		cells, err := s.ReadChunk(cn)
		if err != nil {
			return nil, err
		}
		merged, err := applyChanges(s.geom, cn, cells, chs)
		if err != nil {
			return nil, err
		}
		if len(merged) == 0 {
			out.entries[cn] = chunkEntry{ref: storage.InvalidLOBRef}
			continue
		}
		// A rewritten chunk's density may have shifted, so an adaptive
		// store re-picks its codec here — this is the path that turns a
		// chunk-offset chunk into a diff-seq chunk after ingest fills it
		// in (and back, after deletes). Forced stores keep their codec.
		codec := s.codec
		if codec == nil {
			codec = pickCodec(merged, s.geom.ChunkCapacity())
		}
		enc, err := codec.Encode(merged, s.geom.ChunkCapacity())
		if err != nil {
			return nil, fmt.Errorf("chunk: re-encode chunk %d: %w", cn, err)
		}
		ref, _, err := s.lob.Write(enc)
		if err != nil {
			return nil, fmt.Errorf("chunk: write chunk %d: %w", cn, err)
		}
		out.entries[cn] = chunkEntry{ref: ref, bytes: uint64(len(enc)), cells: uint64(len(merged)), codec: codecID(codec)}
	}

	// Recompute footprint and cell counts from the directory (shared
	// blobs count toward both snapshots' footprints).
	out.totalPages = 0
	out.validCells = 0
	for _, e := range out.entries {
		if e.ref.Valid() {
			out.totalPages += int64(storage.BlobPages(int(e.bytes)))
			out.validCells += int64(e.cells)
		}
	}
	chunkPages := out.totalPages
	for {
		metaPages := int64(storage.BlobPages(len(out.marshalMeta())))
		if out.totalPages == chunkPages+metaPages {
			break
		}
		out.totalPages = chunkPages + metaPages
	}
	meta := out.marshalMeta()
	ref, _, err := s.lob.Write(meta)
	if err != nil {
		return nil, fmt.Errorf("chunk: write metadata: %w", err)
	}
	out.meta = ref
	return out, nil
}

// applyChanges merges sorted cells with a change list.
func applyChanges(g *Geometry, cn int, cells []Cell, chs []CellChange) ([]Cell, error) {
	// Last change to an offset wins; validate offsets.
	byOff := make(map[uint32]CellChange, len(chs))
	for _, ch := range chs {
		if int(ch.Offset) >= g.ChunkCapacity() || !g.ValidOffset(cn, int(ch.Offset)) {
			return nil, fmt.Errorf("chunk: update offset %d invalid in chunk %d", ch.Offset, cn)
		}
		byOff[ch.Offset] = ch
	}
	out := make([]Cell, 0, len(cells)+len(byOff))
	for _, c := range cells {
		ch, ok := byOff[c.Offset]
		if !ok {
			out = append(out, c)
			continue
		}
		delete(byOff, c.Offset)
		if !ch.Delete {
			out = append(out, Cell{Offset: c.Offset, Value: ch.Value})
		}
	}
	for off, ch := range byOff {
		if ch.Delete {
			continue // deleting an absent cell is a no-op
		}
		out = append(out, Cell{Offset: off, Value: ch.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out, nil
}
