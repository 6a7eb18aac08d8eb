package chunk

import (
	"fmt"

	"repro/internal/storage"
)

// Update produces a new Store with the overlay folded in,
// copy-on-write: only chunks with overlay cells are re-encoded and
// written; untouched chunks share their blobs with the receiver (blobs
// are immutable, so sharing is safe). The receiver remains a valid,
// unchanged snapshot — this is the chunk-level half of the engine's
// shadow-version update path. Each chunk's base is read through a plain
// Reader and folds with the merge every reader of the same overlay runs
// (ReadChunk), so what is written is what those readers saw. The overlay is checked whole before anything
// is written: every slice must hold offsets strictly ascending and
// valid in its chunk.
func (s *Store) Update(ov map[int][]OverlayCell) (*Store, error) {
	for cn, cells := range ov {
		if cn < 0 || cn >= len(s.entries) {
			return nil, fmt.Errorf("chunk: update to chunk %d of %d", cn, len(s.entries))
		}
		for i, c := range cells {
			if i > 0 && c.Offset <= cells[i-1].Offset {
				return nil, fmt.Errorf("chunk: update to chunk %d not strictly sorted at %d (%d then %d)",
					cn, i, cells[i-1].Offset, c.Offset)
			}
			if int(c.Offset) >= s.geom.ChunkCapacity() || !s.geom.ValidOffset(cn, int(c.Offset)) {
				return nil, fmt.Errorf("chunk: update offset %d invalid in chunk %d", c.Offset, cn)
			}
		}
	}
	out := &Store{
		lob:     s.lob,
		geom:    s.geom,
		codec:   s.codec,
		entries: append([]chunkEntry(nil), s.entries...),
	}
	base := s.Reader(View{}, nil)
	for cn, chs := range ov {
		cells, err := base.ReadChunk(cn)
		if err != nil {
			return nil, err
		}
		merged := mergeOverlayInto(make([]Cell, 0, len(cells)+len(chs)), cells, chs)
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
		ref, _, err := s.lob.WriteExtent(enc)
		if err != nil {
			return nil, fmt.Errorf("chunk: write chunk %d: %w", cn, err)
		}
		out.entries[cn] = chunkEntry{ref: ref, bytes: uint64(len(enc)), cells: uint64(len(merged)), codec: codecID(codec)}
	}
	if err := out.writeMeta(); err != nil {
		return nil, err
	}
	return out, nil
}
