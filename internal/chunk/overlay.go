package chunk

// OverlayCell is one uncompacted ingest cell laid over a chunk: an
// absolute cell state — set the cell at Offset to Value, or Delete it —
// rather than an arithmetic delta, so merging it over a base that may or
// may not already contain the fold of an earlier snapshot is idempotent.
type OverlayCell struct {
	Offset uint32
	Value  int64
	Delete bool
}

// mergeOverlayInto merge-joins base (offset-sorted decoded cells) with
// ov (offset-sorted overlay) into dst, which is returned. Overlay
// entries win on equal offsets; deletes drop the cell.
func mergeOverlayInto(dst []Cell, base []Cell, ov []OverlayCell) []Cell {
	i, j := 0, 0
	for i < len(base) && j < len(ov) {
		switch {
		case base[i].Offset < ov[j].Offset:
			dst = append(dst, base[i])
			i++
		case base[i].Offset > ov[j].Offset:
			if !ov[j].Delete {
				dst = append(dst, Cell{Offset: ov[j].Offset, Value: ov[j].Value})
			}
			j++
		default:
			if !ov[j].Delete {
				dst = append(dst, Cell{Offset: ov[j].Offset, Value: ov[j].Value})
			}
			i++
			j++
		}
	}
	dst = append(dst, base[i:]...)
	for ; j < len(ov); j++ {
		if !ov[j].Delete {
			dst = append(dst, Cell{Offset: ov[j].Offset, Value: ov[j].Value})
		}
	}
	return dst
}

// MergeOverlayCells merges two offset-sorted overlay slices, with next
// winning on equal offsets. Used by the delta store's copy-on-write
// batch apply; the inputs are not modified.
func MergeOverlayCells(prev, next []OverlayCell) []OverlayCell {
	if len(prev) == 0 {
		return next
	}
	out := make([]OverlayCell, 0, len(prev)+len(next))
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i].Offset < next[j].Offset:
			out = append(out, prev[i])
			i++
		case prev[i].Offset > next[j].Offset:
			out = append(out, next[j])
			j++
		default:
			out = append(out, next[j])
			i++
			j++
		}
	}
	out = append(out, prev[i:]...)
	out = append(out, next[j:]...)
	return out
}
