package exec

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/storage"
)

// TestMasterSlotKeyedBySequence: two published states share a first
// page — the second master was written onto the freed pages of the
// first — and the generation's master slot must not hand back the first
// for the second. Keyed by state, it did.
func TestMasterSlotKeyedBySequence(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, false)
	c := NewExecContext(bp, cat)
	ds, err := delta.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeltaStore(ds)

	a, view, err := c.Array() // the slot now holds a, at its sequence
	if err != nil {
		t.Fatal(err)
	}
	r := a.Store().Reader(view, nil)
	cn, cell := -1, chunk.Cell{}
	for n := 0; n < a.Geometry().NumChunks() && cn < 0; n++ {
		cells, err := r.ReadChunk(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) > 0 {
			cn, cell = n, cells[0]
		}
	}
	b, err := a.ApplyChunkChanges(map[int][]chunk.OverlayCell{cn: {{Offset: cell.Offset, Value: cell.Value + 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	ds.Publish(uint64(b.State().First))

	// b's master bytes, written again onto a's master extent once it is
	// free: a third state at a's first page, with b's cells.
	lob := storage.NewLOBStore(bp)
	data, err := lob.Read(b.State())
	if err != nil {
		t.Fatal(err)
	}
	ext, err := lob.BlobExtent(a.State())
	if err != nil {
		t.Fatal(err)
	}
	if storage.BlobPages(len(data)) != ext.N {
		t.Fatalf("b's master takes %d pages, a's %d", storage.BlobPages(len(data)), ext.N)
	}
	if err := bp.Free(ext); err != nil {
		t.Fatal(err)
	}
	ref, _, err := lob.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	if ref != a.State() {
		t.Fatalf("the copy landed at %v, not on a's freed %v", ref.First, a.State().First)
	}
	ds.Publish(uint64(ref.First))

	arr, view, err := c.Array()
	if err != nil {
		t.Fatal(err)
	}
	r = arr.Store().Reader(view, nil)
	cells, err := r.ReadChunk(cn)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := chunk.SearchCells(cells, cell.Offset); !ok || v != cell.Value+1000 {
		t.Fatalf("chunk %d offset %d reads %d (%v) under the third state; its master holds %d",
			cn, cell.Offset, v, ok, cell.Value+1000)
	}
}

// fuzzVolume builds a small database with every structure the mark pass
// walks — dimension heaps, a fact file, an array and bitmap indexes —
// behind a superblock, and a 4-page extent whose blob the catalog root
// names: FuzzCatalogBlob writes each input there.
func fuzzVolume(t testing.TB) (*storage.BufferPool, *storage.Superblock, storage.PageID, []byte) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.NewCatalog()
	ds, err := datagen.Generate(datagen.Config{
		DimSizes: []int{6, 5, 4}, DistinctH1: []int{3, 2, 2}, DistinctH2: []int{2, 2, 2}, Density: 0.4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(bp, cat, ds.Schema()); err != nil {
		t.Fatal(err)
	}
	for dim := 0; dim < 3; dim++ {
		name := ds.Schema().Dimensions[dim].Name
		if err := ds.EachDimRow(dim, func(key int64, attrs []string) error {
			return LoadDimensionRow(bp, cat, name, key, attrs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := LoadFacts(bp, cat, ds.Facts()); err != nil {
		t.Fatal(err)
	}
	if err := BuildArray(bp, cat, ArrayBuildConfig{ChunkShape: []int{3, 2, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := BuildBitmapIndexes(bp, cat); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bp.AllocateExtent(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Commit(blob); err != nil {
		t.Fatal(err)
	}
	return bp, sb, blob, data
}

// writeBlob writes data as the self-describing blob at first. The
// blob is committed, so it is written straight to the volume, and the
// pool is emptied so that reads see it.
func writeBlob(t testing.TB, bp *storage.BufferPool, first storage.PageID, data []byte) {
	t.Helper()
	img := make([]byte, 4*storage.PageSize)
	storage.PutUint64(img, 0, uint64(len(data)))
	copy(img[8:], data)
	for i := 0; i < 4; i++ {
		if err := bp.Disk().WritePage(first+storage.PageID(i), img[i*storage.PageSize:(i+1)*storage.PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
}

// FuzzCatalogBlob loads a mutated catalog blob and runs the mark pass
// over what it names: neither may panic or hang, and a pass that
// succeeds marked only pages inside the volume, the catalog blob's
// among them.
func FuzzCatalogBlob(f *testing.F) {
	bp, sb, blob, valid := fuzzVolume(f)
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"fact_root":`), []byte(`"fact_root":1`), 1))
	f.Add(bytes.Replace(valid, []byte(`"array_state":`), []byte(`"array_state":3`), 1))
	f.Add([]byte(`{"dim_heaps":{"a":0,"b":1},"fact_root":2,"array_state":5,"bitmap_indexes":{"x.y":9}}`))
	f.Add([]byte(`{"array_state":18446744073709551615,"fact_root":4294967296}`))
	// The statistics' bitmap counts and cost model, well formed and not.
	if !bytes.Contains(valid, []byte(`"counts":`)) || !bytes.Contains(valid, []byte(`"model":{"version":1,`)) {
		f.Fatal("the fuzz volume's catalog carries no bitmap counts or cost model")
	}
	f.Add(bytes.Replace(valid, []byte(`"model":{"version":1,`), []byte(`"model":{"version":7,`), 1))
	f.Add(bytes.Replace(valid, []byte(`"cell_ns":`), []byte(`"cell_ns":-`), 1))
	f.Add(bytes.Replace(valid, []byte(`"tuples":`), []byte(`"tuples":9`), 1))
	f.Add(bytes.Replace(valid, []byte(`,"bytes":`), []byte(`000,"bytes":`), 1)) // a value's fact pages
	f.Add(bytes.Replace(valid, []byte(`"counts":{`), []byte(`"counts":{"extra":{"tuples":1},`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*storage.PageSize-8 {
			return
		}
		writeBlob(t, bp, blob, data)
		cat, err := catalog.Load(bp, sb)
		if err != nil {
			return
		}
		pages := bp.Disk().NumPages()
		m := storage.NewMarks(pages)
		outside := false
		err = MarkPass(bp, sb, cat, func(first storage.PageID, n int) error {
			if n <= 0 || uint64(first) >= pages || uint64(n) > pages-uint64(first) {
				outside = true
			}
			return m.Mark(first, n)
		})
		if bp.PinnedPages() != 0 {
			t.Fatalf("the mark pass left %d pages pinned", bp.PinnedPages())
		}
		if err != nil {
			return
		}
		if outside {
			t.Fatal("a mark pass that marked outside the volume succeeded")
		}
		if !m.Marked(blob) {
			t.Fatal("the catalog blob is not marked")
		}
	})
}
