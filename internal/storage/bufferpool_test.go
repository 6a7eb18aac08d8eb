package storage

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func newTestPool(frames int) *BufferPool {
	return NewBufferPool(NewMemDiskManager(), frames)
}

func TestBufferPoolNewFetchUnpin(t *testing.T) {
	bp := newTestPool(4)
	id, buf, err := bp.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	buf[0] = 0x5A
	if err := bp.Unpin(id, true); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	got, err := bp.FetchPage(id)
	if err != nil {
		t.Fatalf("FetchPage: %v", err)
	}
	if got[0] != 0x5A {
		t.Fatalf("page byte = %#x, want 0x5A", got[0])
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	bp := newTestPool(2)
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, buf, err := bp.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		buf[0] = byte(i + 1)
		if err := bp.Unpin(id, true); err != nil {
			t.Fatalf("Unpin %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	// All five pages must survive even though only two frames exist.
	for i, id := range ids {
		buf, err := bp.FetchPage(id)
		if err != nil {
			t.Fatalf("FetchPage(%v): %v", id, err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %v byte = %d, want %d", id, buf[0], i+1)
		}
		bp.Unpin(id, false)
	}
}

func TestBufferPoolAllPinnedError(t *testing.T) {
	bp := newTestPool(2)
	var held []PageID
	for i := 0; i < 2; i++ {
		id, _, err := bp.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		held = append(held, id)
	}
	if _, _, err := bp.NewPage(); err == nil {
		t.Fatal("NewPage with all frames pinned succeeded")
	}
	for _, id := range held {
		bp.Unpin(id, false)
	}
	if _, _, err := bp.NewPage(); err != nil {
		t.Fatalf("NewPage after unpin: %v", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := newTestPool(2)
	if err := bp.Unpin(PageID(9), false); err == nil {
		t.Fatal("Unpin of uncached page succeeded")
	}
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	if err := bp.Unpin(id, false); err == nil {
		t.Fatal("double Unpin succeeded")
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	bp := newTestPool(2)
	a, _, _ := bp.NewPage()
	bp.Unpin(a, true)
	b, _, _ := bp.NewPage()
	bp.Unpin(b, true)
	// Touch a so that b becomes the LRU victim.
	if _, err := bp.FetchPage(a); err != nil {
		t.Fatalf("FetchPage(a): %v", err)
	}
	bp.Unpin(a, false)
	c, _, _ := bp.NewPage()
	bp.Unpin(c, true)

	before := bp.Stats()
	if _, err := bp.FetchPage(a); err != nil { // should still be resident
		t.Fatalf("FetchPage(a): %v", err)
	}
	bp.Unpin(a, false)
	after := bp.Stats()
	if d := after.Sub(before); d.PhysicalReads != 0 {
		t.Fatalf("fetching recently-used page caused %d physical reads, want 0", d.PhysicalReads)
	}

	before = bp.Stats()
	if _, err := bp.FetchPage(b); err != nil { // must have been evicted
		t.Fatalf("FetchPage(b): %v", err)
	}
	bp.Unpin(b, false)
	after = bp.Stats()
	if d := after.Sub(before); d.PhysicalReads != 1 {
		t.Fatalf("fetching evicted page caused %d physical reads, want 1", d.PhysicalReads)
	}
}

func TestBufferPoolDropAllColdCache(t *testing.T) {
	bp := newTestPool(8)
	id, buf, _ := bp.NewPage()
	buf[7] = 0x77
	bp.Unpin(id, true)
	if err := bp.DropAll(); err != nil {
		t.Fatalf("DropAll: %v", err)
	}
	before := bp.Stats()
	got, err := bp.FetchPage(id)
	if err != nil {
		t.Fatalf("FetchPage: %v", err)
	}
	if got[7] != 0x77 {
		t.Fatal("dirty page lost by DropAll")
	}
	bp.Unpin(id, false)
	if d := bp.Stats().Sub(before); d.PhysicalReads != 1 {
		t.Fatalf("fetch after DropAll caused %d physical reads, want 1", d.PhysicalReads)
	}
}

func TestBufferPoolDropAllRefusesPinned(t *testing.T) {
	bp := newTestPool(4)
	id, _, _ := bp.NewPage()
	if err := bp.DropAll(); err == nil {
		t.Fatal("DropAll with a pinned page succeeded")
	}
	bp.Unpin(id, false)
	if err := bp.DropAll(); err != nil {
		t.Fatalf("DropAll after unpin: %v", err)
	}
}

func TestBufferPoolFlushAllPersists(t *testing.T) {
	disk := NewMemDiskManager()
	bp := NewBufferPool(disk, 4)
	id, buf, _ := bp.NewPage()
	buf[0] = 0xEE
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	raw := make([]byte, PageSize)
	if err := disk.ReadPage(id, raw); err != nil {
		t.Fatalf("disk read: %v", err)
	}
	if raw[0] != 0xEE {
		t.Fatal("FlushAll did not write the dirty page")
	}
}

func TestBufferPoolStatsHitRate(t *testing.T) {
	s := Stats{LogicalReads: 10, PhysicalReads: 2}
	if got := s.HitRate(); got != 0.8 {
		t.Fatalf("HitRate = %v, want 0.8", got)
	}
	if got := (Stats{}).HitRate(); got != 1 {
		t.Fatalf("empty HitRate = %v, want 1", got)
	}
	if s.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestBufferPoolAllocateExtentContiguous(t *testing.T) {
	bp := newTestPool(4)
	// Consume page 0 so the extent starts later.
	id, _, _ := bp.NewPage()
	bp.Unpin(id, true)
	first, err := bp.AllocateExtent(10)
	if err != nil {
		t.Fatalf("AllocateExtent: %v", err)
	}
	if first != PageID(1) {
		t.Fatalf("extent starts at %v, want page 1", first)
	}
	if got := bp.Disk().NumPages(); got != 11 {
		t.Fatalf("NumPages = %d, want 11", got)
	}
	// Extent pages are fetchable through the pool.
	for p := first; p < first+10; p++ {
		if _, err := bp.FetchPage(p); err != nil {
			t.Fatalf("FetchPage(%v): %v", p, err)
		}
		bp.Unpin(p, false)
	}
}

// TestBufferPoolRandomizedConsistency drives the pool with a random
// workload against a shadow map and verifies every page read matches the
// last write, across many evictions.
func TestBufferPoolRandomizedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bp := newTestPool(8)
	shadow := make(map[PageID]byte)
	var ids []PageID
	for i := 0; i < 2000; i++ {
		switch {
		case len(ids) == 0 || rng.Intn(10) == 0:
			id, buf, err := bp.NewPage()
			if err != nil {
				t.Fatalf("NewPage: %v", err)
			}
			v := byte(rng.Intn(256))
			buf[100] = v
			shadow[id] = v
			bp.Unpin(id, true)
			ids = append(ids, id)
		default:
			id := ids[rng.Intn(len(ids))]
			buf, err := bp.FetchPage(id)
			if err != nil {
				t.Fatalf("FetchPage(%v): %v", id, err)
			}
			if buf[100] != shadow[id] {
				t.Fatalf("page %v = %d, want %d", id, buf[100], shadow[id])
			}
			dirty := rng.Intn(2) == 0
			if dirty {
				v := byte(rng.Intn(256))
				buf[100] = v
				shadow[id] = v
			}
			bp.Unpin(id, dirty)
		}
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned after workload", bp.PinnedPages())
	}
}

func TestBufferPoolConcurrentFetch(t *testing.T) {
	bp := newTestPool(16)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, buf, err := bp.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		buf[0] = byte(i)
		bp.Unpin(id, true)
		ids = append(ids, id)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				n := rng.Intn(len(ids))
				buf, err := bp.FetchPage(ids[n])
				if err != nil {
					errc <- err
					return
				}
				if buf[0] != byte(n) {
					errc <- fmt.Errorf("page %d holds %d", n, buf[0])
					return
				}
				if err := bp.Unpin(ids[n], false); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameStampClears: a frame's stamp survives clean pins and unpins,
// and is zeroed by everything that loads the frame's bytes or may change
// them: a pin that reads the page, FetchPageForWrite (hit or miss),
// NewPage and a dirty Unpin. Every frame is stamped before a load, so
// the check holds whichever free frame the pool picks.
func TestFrameStampClears(t *testing.T) {
	bp := newTestPool(2)
	stamp := func(id PageID) *atomic.Uint64 {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return &bp.frames[bp.table[id]].checked
	}
	stampAll := func() {
		for i := range bp.frames {
			bp.frames[i].checked.Store(7)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := func(what string, id PageID, v uint64) {
		t.Helper()
		if got := stamp(id).Load(); got != v {
			t.Fatalf("%s: stamp %d, want %d", what, got, v)
		}
	}

	stampAll()
	id, _, err := bp.NewPage()
	must(err)
	want("NewPage", id, 0)
	stamp(id).Store(7)
	must(bp.Unpin(id, true))
	want("dirty Unpin", id, 0)

	stamp(id).Store(7)
	_, err = bp.FetchPage(id)
	must(err)
	must(bp.Unpin(id, false))
	want("clean pin and Unpin", id, 7)

	_, err = bp.FetchPageForWrite(id)
	must(err)
	want("FetchPageForWrite hit", id, 0)
	must(bp.Unpin(id, false))

	must(bp.DropAll())
	stampAll()
	_, err = bp.FetchPage(id)
	must(err)
	want("pin miss", id, 0)
	must(bp.Unpin(id, false))

	must(bp.DropAll())
	stampAll()
	_, err = bp.FetchPageForWrite(id)
	must(err)
	want("FetchPageForWrite miss", id, 0)
	must(bp.Unpin(id, false))
}
