package array

import (
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
)

// write is one cell write addressed by dimension keys.
type write struct {
	keys   []int64
	value  int64
	delete bool
}

// locate resolves key-addressed writes to the offset-sorted overlay
// ApplyChunkChanges takes, the way the ingest path resolves them.
func locate(t *testing.T, a *Array, ws []write) map[int][]chunk.OverlayCell {
	t.Helper()
	changes := make(map[int][]chunk.OverlayCell)
	coords := make([]int, len(a.dims))
	for _, w := range ws {
		for i, k := range w.keys {
			idx, ok, err := a.dims[i].IndexOf(k)
			if err != nil || !ok {
				t.Fatalf("key %d of dimension %d: ok=%v err=%v", k, i, ok, err)
			}
			coords[i] = idx
		}
		cn, off := a.Geometry().Locate(coords)
		changes[cn] = append(changes[cn], chunk.OverlayCell{Offset: uint32(off), Value: w.value, Delete: w.delete})
	}
	for _, cells := range changes {
		slices.SortFunc(cells, func(x, y chunk.OverlayCell) int { return int(x.Offset) - int(y.Offset) })
	}
	return changes
}

func TestArrayUpdateCopyOnWrite(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 512)
	a, ref := buildTestArray(t, bp)

	pagesBefore := bp.Disk().NumPages()
	next, err := a.ApplyChunkChanges(locate(t, a, []write{
		{keys: []int64{0, 0}, value: 999},   // overwrite (cell (0,0) exists)
		{keys: []int64{1, 0}, value: 555},   // insert ((1,0): (1+0)%3 != 0, absent)
		{keys: []int64{3, 0}, delete: true}, // delete ((3,0) exists)
		{keys: []int64{5, 2}, delete: true}, // delete absent: no-op ((5,2): 7%3!=0)
		{keys: []int64{2, 3}, value: -7},    // insert in another chunk ((2,3): 5%3 != 0)
	}))
	if err != nil {
		t.Fatalf("ApplyChunkChanges: %v", err)
	}
	pagesAfter := bp.Disk().NumPages()

	// Old version unchanged.
	for k, want := range ref {
		v, ok, err := a.Get(chunk.View{}, k[:])
		if err != nil || !ok || v != want {
			t.Fatalf("old version Get(%v) = (%d, %v, %v), want %d", k, v, ok, err, want)
		}
	}
	if v, ok, _ := a.Get(chunk.View{}, []int64{1, 0}); ok {
		t.Fatalf("old version sees inserted cell: %d", v)
	}

	// New version reflects the updates.
	want := map[[2]int64]int64{}
	for k, v := range ref {
		want[k] = v
	}
	want[[2]int64{0, 0}] = 999
	want[[2]int64{1, 0}] = 555
	delete(want, [2]int64{3, 0})
	want[[2]int64{2, 3}] = -7
	for k0 := int64(0); k0 < 6; k0++ {
		for k1 := int64(0); k1 < 4; k1++ {
			v, ok, err := next.Get(chunk.View{}, []int64{k0, k1})
			if err != nil {
				t.Fatal(err)
			}
			w, valid := want[[2]int64{k0, k1}]
			if ok != valid || (ok && v != w) {
				t.Fatalf("new version Get(%d,%d) = (%d, %v), want (%d, %v)", k0, k1, v, ok, w, valid)
			}
		}
	}
	if next.NumValidCells() != int64(len(want)) {
		t.Fatalf("new version cells = %d, want %d", next.NumValidCells(), len(want))
	}

	// COW: far fewer new pages than a full rebuild (2 chunks re-encoded
	// + meta + state).
	grown := pagesAfter - pagesBefore
	if grown == 0 || grown > 16 {
		t.Fatalf("update allocated %d pages", grown)
	}

	// The new version reopens from its state blob.
	re, err := Open(bp, next.State())
	if err != nil {
		t.Fatalf("Open(updated): %v", err)
	}
	v, ok, err := re.Get(chunk.View{}, []int64{1, 0})
	if err != nil || !ok || v != 555 {
		t.Fatalf("reopened updated Get = (%d, %v, %v)", v, ok, err)
	}
}

func TestArrayUpdateErrorsAndNoop(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 512)
	a, _ := buildTestArray(t, bp)

	same, err := a.ApplyChunkChanges(nil)
	if err != nil || same != a {
		t.Fatalf("empty update = (%p, %v), want receiver", same, err)
	}
	// Key errors are the ingest path's (the root package tests them);
	// here a change can only name a location that does not exist.
	n := a.Geometry().NumChunks()
	if _, err := a.ApplyChunkChanges(map[int][]chunk.OverlayCell{n: {{Offset: 0, Value: 1}}}); err == nil {
		t.Fatal("update to a chunk past the array succeeded")
	}
	capacity := uint32(a.Geometry().ChunkCapacity())
	if _, err := a.ApplyChunkChanges(map[int][]chunk.OverlayCell{0: {{Offset: capacity, Value: 1}}}); err == nil {
		t.Fatal("update to an offset past the chunk succeeded")
	}
}

func TestArrayUpdateEmptiesChunk(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 512)
	a, ref := buildTestArray(t, bp)

	// Delete every valid cell: the store must end empty.
	var dels []write
	for k := range ref {
		dels = append(dels, write{keys: []int64{k[0], k[1]}, delete: true})
	}
	next, err := a.ApplyChunkChanges(locate(t, a, dels))
	if err != nil {
		t.Fatal(err)
	}
	if next.NumValidCells() != 0 {
		t.Fatalf("cells after full delete = %d", next.NumValidCells())
	}
	for k := range ref {
		if _, ok, _ := next.Get(chunk.View{}, []int64{k[0], k[1]}); ok {
			t.Fatalf("cell %v survived deletion", k)
		}
	}
}
