package array

import (
	"repro/internal/chunk"
	"repro/internal/storage"
)

// ApplyChunkChanges produces a new version of the array with an overlay
// of cell states folded in (chunk.Store.Update) — the ADT's Write
// function (§3.5) realized copy-on-write, for cells already resolved to
// (chunk, offset): only the touched chunks are re-encoded; untouched
// chunks, the dimension B-trees, the IndexToIndex arrays, and the
// dictionaries are shared with the receiver, which remains a valid
// snapshot. The new version's
// State() must be published (catalog + commit) to take effect. The delta
// compactor is its one caller: its overlay is stored by location.
//
// The fold reads the receiver's base cells alone (chunk.Store.Update
// reads through a plain reader), so the overlay never folds over
// already-merged data. On an adaptive store the
// rewrite re-picks each touched chunk's codec, so compaction migrates
// chunks whose density shifted to the now-smaller encoding.
func (a *Array) ApplyChunkChanges(ov map[int][]chunk.OverlayCell) (*Array, error) {
	if len(ov) == 0 {
		return a, nil
	}
	store, err := a.store.Update(ov)
	if err != nil {
		return nil, err
	}
	next := &Array{bp: a.bp, store: store, dims: a.dims}
	ref, pages, err := storage.NewLOBStore(a.bp).Write(next.marshalState())
	if err != nil {
		return nil, err
	}
	next.state, next.statePages = ref, pages
	return next, nil
}
