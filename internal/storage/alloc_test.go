package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// poolWithPages returns a pool over a volume of n pages, page 0 the
// superblock's place.
func poolWithPages(t *testing.T, frames, n int) *BufferPool {
	t.Helper()
	bp := newTestPool(frames)
	if _, err := bp.Disk().Allocate(n); err != nil {
		t.Fatal(err)
	}
	return bp
}

func freeList(bp *BufferPool) []Extent {
	bp.alloc.mu.Lock()
	defer bp.alloc.mu.Unlock()
	return slices.Clone(bp.alloc.free)
}

func TestAllocatorFirstFitSplitsAndMerges(t *testing.T) {
	bp := poolWithPages(t, 8, 40)
	if err := bp.Free(Extent{First: 10, N: 4}, Extent{First: 20, N: 8}, Extent{First: 14, N: 2}); err != nil {
		t.Fatal(err)
	}
	// 10..13 and 14..15 touch: they coalesce.
	if got, want := freeList(bp), []Extent{{10, 6}, {20, 8}}; !slices.Equal(got, want) {
		t.Fatalf("free list = %v, want %v", got, want)
	}
	// First fit: 7 pages skip the 6-page extent and split the 8-page one.
	id, err := bp.AllocateExtent(7)
	if err != nil || id != 20 {
		t.Fatalf("AllocateExtent(7) = %v, %v; want page 20", id, err)
	}
	id, err = bp.AllocateExtent(2)
	if err != nil || id != 10 {
		t.Fatalf("AllocateExtent(2) = %v, %v; want page 10", id, err)
	}
	if got, want := freeList(bp), []Extent{{12, 4}, {27, 1}}; !slices.Equal(got, want) {
		t.Fatalf("free list = %v, want %v", got, want)
	}
	// Nothing fits 5 pages and no free extent ends the volume: it grows.
	id, err = bp.AllocateExtent(5)
	if err != nil || id != 40 || bp.Disk().NumPages() != 45 {
		t.Fatalf("AllocateExtent(5) = %v, %v on %d pages; want page 40 on 45", id, err, bp.Disk().NumPages())
	}
	if sp := bp.Space(); sp.FreePages != 5 || sp.ReusedPages != 9 {
		t.Fatalf("space = %+v, want 5 free and 9 reused", sp)
	}
}

func TestAllocatorStretchesTheFreeTail(t *testing.T) {
	bp := poolWithPages(t, 8, 20)
	if err := bp.Free(Extent{First: 17, N: 3}); err != nil {
		t.Fatal(err)
	}
	id, err := bp.AllocateExtent(5)
	if err != nil || id != 17 || bp.Disk().NumPages() != 22 {
		t.Fatalf("AllocateExtent(5) = %v, %v on %d pages; want page 17 on 22", id, err, bp.Disk().NumPages())
	}
	if got := freeList(bp); len(got) != 0 {
		t.Fatalf("free list = %v, want empty", got)
	}
}

func TestAllocatorRefusesBadFrees(t *testing.T) {
	bp := poolWithPages(t, 8, 20)
	if err := bp.Free(Extent{First: 5, N: 4}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Extent{
		{First: 7, N: 1},  // inside a free extent
		{First: 3, N: 3},  // overlaps its start
		{First: 0, N: 1},  // a commit slot
		{First: 1, N: 2},  // the other
		{First: 18, N: 3}, // past the end
		{First: 10, N: 0}, // empty
		{First: InvalidPageID, N: 1},
	} {
		if err := bp.Free(e); err == nil {
			t.Errorf("Free(%v) succeeded", e)
		}
	}
	if got, want := freeList(bp), []Extent{{5, 4}}; !slices.Equal(got, want) {
		t.Fatalf("free list = %v, want %v", got, want)
	}
}

func TestRetiredExtentsWaitForTheirTag(t *testing.T) {
	bp := poolWithPages(t, 8, 30)
	bp.Retire(0, Extent{First: 2, N: 1})
	bp.Retire(3, Extent{First: 10, N: 4})
	bp.Retire(5, Extent{First: 20, N: 2})
	if sp := bp.Space(); sp.PendingPages != 7 || sp.FreePages != 0 {
		t.Fatalf("space = %+v, want 7 pending", sp)
	}
	// A reader still holds snapshot 3: only tag 0 is below it.
	if err := bp.Reclaim(3); err != nil {
		t.Fatal(err)
	}
	if got, want := freeList(bp), []Extent{{2, 1}}; !slices.Equal(got, want) {
		t.Fatalf("free list = %v, want %v", got, want)
	}
	if err := bp.Reclaim(6); err != nil {
		t.Fatal(err)
	}
	if sp := bp.Space(); sp.PendingPages != 0 || sp.FreePages != 7 {
		t.Fatalf("space = %+v, want 7 free, none pending", sp)
	}
}

func TestFreeDropsCachedFrames(t *testing.T) {
	bp := poolWithPages(t, 4, 4)
	buf, err := bp.FetchPage(2)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 7
	bp.Unpin(2, true)
	if err := bp.Free(Extent{First: 2, N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := bp.table[2]; ok {
		t.Fatal("a freed page is still cached")
	}
	if bp.Stats().PageWrites != 0 {
		t.Fatal("a freed dirty page was written back")
	}
}

func TestMarks(t *testing.T) {
	m := NewMarks(20)
	for _, e := range []Extent{{3, 2}, {9, 1}, {10, 4}} {
		if err := m.Mark(e.First, e.N); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Extent{{4, 1}, {19, 2}, {20, 1}, {0, 1}, {1, 1}, {5, 0}, {InvalidPageID, 1}} {
		if err := m.Mark(e.First, e.N); err == nil {
			t.Errorf("Mark(%v) succeeded", e)
		}
	}
	want := []Extent{{2, 1}, {5, 4}, {14, 6}}
	if got := m.Unmarked(); !slices.Equal(got, want) {
		t.Fatalf("Unmarked = %v, want %v", got, want)
	}
}

// TestFileAllocateConcurrent extends one file from 8 goroutines at once,
// each writing its pages as soon as it has them: the file must cover
// every extent handed out and keep every page written. When the page
// count moved under the lock but the file was extended after it, a call
// that computed the smaller size could truncate below a later extent,
// cutting off pages already written.
func TestFileAllocateConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.db")
	d, err := OpenFileDiskManager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	owner := make([][]PageID, 8)
	var wg sync.WaitGroup
	for g := range owner {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := bytes.Repeat([]byte{byte(g + 1)}, PageSize)
			for i := 0; i < 200; i++ {
				n := 1 + (g+i)%3
				first, err := d.Allocate(n)
				if err != nil {
					t.Error(err)
					return
				}
				for p := first; p < first+PageID(n); p++ {
					if err := d.WritePage(p, page); err != nil {
						t.Error(err)
						return
					}
					owner[g] = append(owner[g], p)
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(d.NumPages())*PageSize {
		t.Fatalf("file is %d bytes for %d pages", st.Size(), d.NumPages())
	}
	buf := make([]byte, PageSize)
	for g, pages := range owner {
		for _, p := range pages {
			if err := d.ReadPage(p, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(g+1) || buf[PageSize-1] != byte(g+1) {
				t.Fatalf("%v, written by goroutine %d, reads %d", p, g, buf[0])
			}
		}
	}
}

// TestMemDiscardDropsPages: a discarded page reads as zeros, and takes a
// write again.
func TestMemDiscardDropsPages(t *testing.T) {
	d := NewMemDiskManager()
	d.Allocate(3)
	one := bytes.Repeat([]byte{1}, PageSize)
	d.WritePage(1, one)
	d.Discard(1, 1)
	buf := make([]byte, PageSize)
	if err := d.ReadPage(1, buf); err != nil || !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatalf("discarded page: %v", err)
	}
	if err := d.WritePage(1, one); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(1, buf); err != nil || !bytes.Equal(buf, one) {
		t.Fatalf("rewritten page: %v", err)
	}
}
