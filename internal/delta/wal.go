package delta

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/chunk"
)

// Ingested batches are not in the volume until a compaction folds them
// in and commits, so the delta store keeps them in a log of its own
// until then. It is a Records file with one batch per record:
//
//	payload: uvarint cell count, then per cell
//	         uvarint chunk, uvarint offset, varint value, u8 delete
//
// Records are appended and synced in order, so replay's torn-tail cut
// keeps every acknowledged batch.

// openLog opens (creating if absent) the delta log and replays its
// batches.
func openLog(path string) (*Records, [][]Cell, error) {
	var batches [][]Cell
	log, err := OpenRecords(path, func(p []byte) error {
		b, err := decodeBatch(p)
		if err != nil {
			return err
		}
		batches = append(batches, b)
		return nil
	})
	return log, batches, err
}

// rewriteLog replaces the log with one batch per remaining dirty chunk.
func rewriteLog(log *Records, remaining map[int][]chunk.OverlayCell) error {
	chunks := make([]int, 0, len(remaining))
	for cn := range remaining {
		chunks = append(chunks, cn)
	}
	sort.Ints(chunks)
	payloads := make([][]byte, len(chunks))
	for i, cn := range chunks {
		batch := make([]Cell, len(remaining[cn]))
		for j, c := range remaining[cn] {
			batch[j] = Cell{Chunk: cn, Offset: c.Offset, Value: c.Value, Delete: c.Delete}
		}
		payloads[i] = encodeBatch(batch)
	}
	return log.Rewrite(payloads)
}

func encodeBatch(cells []Cell) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(cells)))
	for _, c := range cells {
		payload = binary.AppendUvarint(payload, uint64(c.Chunk))
		payload = binary.AppendUvarint(payload, uint64(c.Offset))
		payload = binary.AppendVarint(payload, c.Value)
		if c.Delete {
			payload = append(payload, 1)
		} else {
			payload = append(payload, 0)
		}
	}
	return payload
}

func decodeBatch(payload []byte) ([]Cell, error) {
	n, sz := binary.Uvarint(payload)
	// A cell takes at least four bytes, which bounds the allocation.
	if sz <= 0 || n > uint64(len(payload)-sz)/4 {
		return nil, fmt.Errorf("delta: corrupt batch header")
	}
	payload = payload[sz:]
	cells := make([]Cell, 0, n)
	for i := uint64(0); i < n; i++ {
		cn, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("delta: corrupt cell chunk")
		}
		payload = payload[sz:]
		off, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("delta: corrupt cell offset")
		}
		payload = payload[sz:]
		v, sz := binary.Varint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("delta: corrupt cell value")
		}
		payload = payload[sz:]
		if len(payload) < 1 {
			return nil, fmt.Errorf("delta: corrupt cell flag")
		}
		del := payload[0] != 0
		payload = payload[1:]
		cells = append(cells, Cell{Chunk: int(cn), Offset: uint32(off), Value: v, Delete: del})
	}
	return cells, nil
}
