package exec

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// MarkPass hands mark every page the catalog reaches: the catalog blob
// and the dimension heaps (catalog.Pages), the fact file's header,
// directory and extents, every bitmap index blob, and the array's master
// blob, B-trees, chunk directory and chunk extents. Each structure walks
// its own pages; mark's refusal of a page seen before, or of one past
// the volume's end, is what stops a walk of a corrupt one. The pages it
// does not mark are what no committed root reaches: Open frees them.
func MarkPass(bp *storage.BufferPool, sb *storage.Superblock, cat *catalog.Catalog,
	mark func(first storage.PageID, n int) error) error {
	if err := cat.Pages(bp, sb, mark); err != nil {
		return err
	}
	if cat.FactRoot != 0 {
		ff, err := factfile.Open(bp, storage.PageID(cat.FactRoot))
		if err == nil {
			err = ff.Pages(mark)
		}
		if err != nil {
			return fmt.Errorf("exec: mark fact file: %w", err)
		}
	}
	lob := storage.NewLOBStore(bp)
	for key, first := range cat.BitmapIndexes {
		ext, err := lob.BlobExtent(storage.LOBRef{First: storage.PageID(first)})
		if err == nil {
			err = mark(ext.First, ext.N)
		}
		if err != nil {
			return fmt.Errorf("exec: mark bitmap index %s: %w", key, err)
		}
	}
	if cat.ArrayState != 0 {
		arr, err := array.Open(bp, storage.LOBRef{First: storage.PageID(cat.ArrayState)})
		if err == nil {
			err = arr.Pages(mark)
		}
		if err != nil {
			return fmt.Errorf("exec: mark array: %w", err)
		}
	}
	return nil
}
