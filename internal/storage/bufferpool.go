package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats counts the physical and logical page traffic through a buffer
// pool. The benchmark harness reads deltas of these counters around each
// query, since page I/O is what drives the crossovers the paper reports.
type Stats struct {
	LogicalReads  uint64 // buffer pool fetches
	PhysicalReads uint64 // fetches that missed and went to disk
	PageWrites    uint64 // dirty pages written back to disk
	Allocations   uint64 // pages allocated
	Evictions     uint64 // unpinned frames reclaimed for another page
}

// Sub returns s - o, counter by counter.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads - o.LogicalReads,
		PhysicalReads: s.PhysicalReads - o.PhysicalReads,
		PageWrites:    s.PageWrites - o.PageWrites,
		Allocations:   s.Allocations - o.Allocations,
		Evictions:     s.Evictions - o.Evictions,
	}
}

// HitRate reports the fraction of logical reads served from memory.
func (s Stats) HitRate() float64 {
	if s.LogicalReads == 0 {
		return 1
	}
	return 1 - float64(s.PhysicalReads)/float64(s.LogicalReads)
}

func (s Stats) String() string {
	return fmt.Sprintf("logical=%d physical=%d writes=%d alloc=%d hit=%.3f",
		s.LogicalReads, s.PhysicalReads, s.PageWrites, s.Allocations, s.HitRate())
}

// Instrument registers the pool's counters on a metrics registry and
// turns on the physical-read latency histogram. Callback counters read
// the pool's atomics directly, so instrumentation adds no work to the
// fetch path beyond the (miss-only) latency observation.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	reg.CounterFunc("bufferpool_logical_reads_total",
		"page fetches served by the buffer pool",
		func() int64 { return int64(bp.logicalReads.Load()) })
	reg.CounterFunc("bufferpool_physical_reads_total",
		"page fetches that missed and read the volume",
		func() int64 { return int64(bp.physicalReads.Load()) })
	reg.CounterFunc("bufferpool_hits_total",
		"page fetches served from memory",
		func() int64 { return int64(bp.logicalReads.Load() - bp.physicalReads.Load()) })
	reg.CounterFunc("bufferpool_evictions_total",
		"unpinned frames reclaimed for another page",
		func() int64 { return int64(bp.evictions.Load()) })
	reg.CounterFunc("bufferpool_page_writes_total",
		"dirty pages written back to the volume",
		func() int64 { return int64(bp.pageWrites.Load()) })
	reg.CounterFunc("bufferpool_allocations_total",
		"pages allocated on the volume",
		func() int64 { return int64(bp.allocations.Load()) })
	reg.GaugeFunc("bufferpool_hit_rate",
		"fraction of logical reads served from memory",
		func() float64 { return bp.Stats().HitRate() })
	reg.GaugeFunc("bufferpool_frames",
		"pool capacity in pages",
		func() float64 { return float64(len(bp.frames)) })
	bp.readLatency.Store(reg.Histogram("bufferpool_read_seconds",
		"physical page read latency", nil))
}

// readPage reads a page from the volume, observing the latency when the
// pool is instrumented.
func (bp *BufferPool) readPage(id PageID, buf []byte) error {
	h := bp.readLatency.Load()
	if h == nil {
		return bp.disk.ReadPage(id, buf)
	}
	start := time.Now()
	err := bp.disk.ReadPage(id, buf)
	h.ObserveDuration(time.Since(start))
	return err
}

// frame is one buffer pool slot.
type frame struct {
	id    PageID
	data  []byte
	pins  int32
	dirty bool

	// checked is the frame's stamp: a nonzero tag a reader stores once it
	// has checked the bytes (LOBStore.Walk hands it on with the page). It
	// is zeroed whenever the bytes are loaded or may change: a pin that
	// reads the page, FetchPageForWrite, NewPage and a dirty unpin.
	checked atomic.Uint64
}

// BufferPool caches pages over a DiskManager, replacing the least
// recently unpinned frame. Callers fetch a page, operate on its bytes,
// and unpin it, marking it dirty if modified.
//
// The pool mirrors the paper's configuration: pin/unpin with LRU
// replacement, and Paradise's 16 MB, which is the default produced by
// DefaultFrames.
type BufferPool struct {
	mu     sync.Mutex
	disk   DiskManager
	frames []frame
	table  map[PageID]int // page id -> frame index
	free   []int          // indices of empty frames
	logger PageLogger     // write-ahead hook, may be nil

	// The unpinned frames in unpin order: a doubly linked list threaded
	// through frame indexes, whose sentinel is index len(frames) — its
	// next is the next victim. A frame enters when its pin count drops to
	// zero and leaves when it is pinned again, evicted or dropped;
	// lruPrev[idx] is -1 while it is out. lruLen counts the list.
	lruNext, lruPrev []int32
	lruLen           int

	logicalReads  atomic.Uint64
	physicalReads atomic.Uint64
	pageWrites    atomic.Uint64
	allocations   atomic.Uint64
	evictions     atomic.Uint64

	// readLatency, when instrumented, observes the wall time of each
	// physical page read. Atomic so Instrument may run after the pool is
	// shared.
	readLatency atomic.Pointer[obs.Histogram]
}

// DefaultFrames is the number of frames in a 16 MB pool, matching the
// configuration used in the paper's experiments.
const DefaultFrames = 16 << 20 / PageSize

// PageLogger receives the image of every dirty page immediately before it
// is written to the volume, implementing the write-ahead rule. The WAL
// satisfies this interface.
type PageLogger interface {
	LogPageImage(id PageID, img []byte) error
}

// BeforeImageLogger is the optional undo extension of PageLogger: when
// the installed logger also implements it, FetchPageForWrite records the
// pre-modification image of clean pages, letting recovery roll back
// uncommitted in-place changes. The WAL satisfies this interface too.
type BeforeImageLogger interface {
	LogBeforeImage(id PageID, img []byte) error
}

// NewBufferPool creates a pool with the given number of frames over disk
// (0 selects DefaultFrames).
func NewBufferPool(disk DiskManager, numFrames int) *BufferPool {
	if numFrames <= 0 {
		numFrames = DefaultFrames
	}
	bp := &BufferPool{
		disk:    disk,
		frames:  make([]frame, numFrames),
		table:   make(map[PageID]int, numFrames),
		free:    make([]int, 0, numFrames),
		lruNext: make([]int32, numFrames+1),
		lruPrev: make([]int32, numFrames+1),
	}
	for i := range bp.frames {
		bp.frames[i].id = InvalidPageID
		bp.frames[i].data = make([]byte, PageSize)
		bp.free = append(bp.free, i)
		bp.lruPrev[i] = -1
	}
	bp.lruNext[numFrames], bp.lruPrev[numFrames] = int32(numFrames), int32(numFrames)
	return bp
}

// lruPush makes frame idx, whose last pin was just released, the most
// recently unpinned. Caller holds bp.mu.
func (bp *BufferPool) lruPush(idx int) {
	s := int32(len(bp.frames))
	last := bp.lruPrev[s]
	bp.lruNext[last], bp.lruPrev[idx] = int32(idx), last
	bp.lruNext[idx], bp.lruPrev[s] = s, int32(idx)
	bp.lruLen++
}

// lruRemove takes frame idx out of the replacement order: it is in use
// again, evicted or dropped. A frame that is not in it is left alone.
// Caller holds bp.mu.
func (bp *BufferPool) lruRemove(idx int) {
	prev := bp.lruPrev[idx]
	if prev < 0 {
		return
	}
	next := bp.lruNext[idx]
	bp.lruNext[prev], bp.lruPrev[next] = next, prev
	bp.lruPrev[idx] = -1
	bp.lruLen--
}

// SetPageLogger installs the write-ahead hook. Pass nil to disable
// logging. Must be called before the pool is shared between goroutines.
func (bp *BufferPool) SetPageLogger(l PageLogger) {
	bp.mu.Lock()
	bp.logger = l
	bp.mu.Unlock()
}

// writeBack persists a dirty frame, honouring the write-ahead rule.
// Caller holds bp.mu and f.dirty is true.
func (bp *BufferPool) writeBack(f *frame) error {
	if bp.logger != nil {
		if err := bp.logger.LogPageImage(f.id, f.data); err != nil {
			return err
		}
	}
	if err := bp.disk.WritePage(f.id, f.data); err != nil {
		return err
	}
	bp.pageWrites.Add(1)
	f.dirty = false
	return nil
}

// Disk exposes the underlying disk manager.
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() Stats {
	return Stats{
		LogicalReads:  bp.logicalReads.Load(),
		PhysicalReads: bp.physicalReads.Load(),
		PageWrites:    bp.pageWrites.Load(),
		Allocations:   bp.allocations.Load(),
		Evictions:     bp.evictions.Load(),
	}
}

// victim evicts the least recently unpinned frame and returns its index,
// or an error when every frame is pinned. Caller holds bp.mu.
func (bp *BufferPool) victim() (int, error) {
	if n := len(bp.free); n > 0 {
		idx := bp.free[n-1]
		bp.free = bp.free[:n-1]
		return idx, nil
	}
	idx := int(bp.lruNext[len(bp.frames)])
	if idx == len(bp.frames) {
		return 0, ErrBufferPoolFull
	}
	f := &bp.frames[idx]
	if f.dirty {
		if err := bp.writeBack(f); err != nil {
			// The frame stays at the front, so it is retried first once
			// the fault clears.
			return 0, err
		}
	}
	bp.lruRemove(idx)
	delete(bp.table, f.id)
	f.id = InvalidPageID
	bp.evictions.Add(1)
	return idx, nil
}

// FetchPage pins the page and returns its in-memory bytes. The slice
// aliases the frame and is valid until Unpin. Every FetchPage must be
// paired with exactly one Unpin.
func (bp *BufferPool) FetchPage(id PageID) ([]byte, error) {
	bp.logicalReads.Add(1)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.pin(id)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// pin is FetchPage's body; it returns the pinned frame. Caller holds
// bp.mu.
func (bp *BufferPool) pin(id PageID) (*frame, error) {
	if idx, ok := bp.table[id]; ok {
		f := &bp.frames[idx]
		if f.pins == 0 {
			bp.lruRemove(idx)
		}
		f.pins++
		return f, nil
	}
	idx, err := bp.victim()
	if err != nil {
		return nil, err
	}
	f := &bp.frames[idx]
	if err := bp.readPage(id, f.data); err != nil {
		bp.free = append(bp.free, idx)
		return nil, err
	}
	bp.physicalReads.Add(1)
	f.id = id
	f.pins = 1
	f.dirty = false
	f.checked.Store(0)
	bp.table[id] = idx
	return f, nil
}

// FetchPageForWrite pins the page for modification. It behaves like
// FetchPage, and additionally — when the installed logger supports undo —
// records the page's before-image the first time a clean page is taken
// for writing, so an uncommitted modification that later reaches the
// volume can be rolled back by recovery. Mutating call sites (heap,
// B-tree, fact file, superblock updates) use this; read paths use
// FetchPage.
func (bp *BufferPool) FetchPageForWrite(id PageID) ([]byte, error) {
	bp.logicalReads.Add(1)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	undo, _ := bp.logger.(BeforeImageLogger)
	if idx, ok := bp.table[id]; ok {
		f := &bp.frames[idx]
		if undo != nil && !f.dirty {
			if err := undo.LogBeforeImage(id, f.data); err != nil {
				return nil, err
			}
		}
		if f.pins == 0 {
			bp.lruRemove(idx)
		}
		f.pins++
		f.checked.Store(0)
		return f.data, nil
	}
	idx, err := bp.victim()
	if err != nil {
		return nil, err
	}
	f := &bp.frames[idx]
	if err := bp.readPage(id, f.data); err != nil {
		bp.free = append(bp.free, idx)
		return nil, err
	}
	bp.physicalReads.Add(1)
	f.checked.Store(0)
	if undo != nil {
		if err := undo.LogBeforeImage(id, f.data); err != nil {
			bp.free = append(bp.free, idx)
			return nil, err
		}
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	bp.table[id] = idx
	return f.data, nil
}

// NewPage allocates a fresh page on disk, pins it, and returns its id and
// zeroed bytes.
func (bp *BufferPool) NewPage() (PageID, []byte, error) {
	id, err := bp.disk.Allocate(1)
	if err != nil {
		return InvalidPageID, nil, err
	}
	bp.allocations.Add(1)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	idx, err := bp.victim()
	if err != nil {
		return InvalidPageID, nil, err
	}
	f := &bp.frames[idx]
	for i := range f.data {
		f.data[i] = 0
	}
	f.id = id
	f.pins = 1
	f.dirty = true
	f.checked.Store(0)
	bp.table[id] = idx
	return id, f.data, nil
}

// AllocateExtent reserves n contiguous pages on disk without caching them.
// The fact file uses this to build its extents.
func (bp *BufferPool) AllocateExtent(n int) (PageID, error) {
	id, err := bp.disk.Allocate(n)
	if err != nil {
		return InvalidPageID, err
	}
	bp.allocations.Add(uint64(n))
	return id, nil
}

// Unpin releases one pin on the page, marking the frame dirty when the
// caller modified it. When the pin count reaches zero the frame becomes
// eligible for replacement.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.unpin(id, dirty)
}

// unpin is Unpin's body. Caller holds bp.mu.
func (bp *BufferPool) unpin(id PageID, dirty bool) error {
	idx, ok := bp.table[id]
	if !ok {
		return fmt.Errorf("storage: unpin of uncached %v", id)
	}
	f := &bp.frames[idx]
	if f.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned %v", id)
	}
	if dirty {
		f.dirty = true
		f.checked.Store(0)
	}
	f.pins--
	if f.pins == 0 {
		bp.lruPush(idx)
	}
	return nil
}

// pinRun pins every page of ids under one lock acquisition, setting
// frames[i] to page ids[i]'s frame — its bytes and its stamp — with
// FetchPage's contract per page. It pins all of them or none: on an
// error the pins it took are released before it returns, and no logical
// read is counted.
func (bp *BufferPool) pinRun(ids []PageID, frames []*frame) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i, id := range ids {
		f, err := bp.pin(id)
		if err != nil {
			for _, pinned := range ids[:i] {
				bp.unpin(pinned, false)
			}
			return err
		}
		frames[i] = f
	}
	bp.logicalReads.Add(uint64(len(ids)))
	return nil
}

// unpinRun releases, under one lock acquisition, the pins pinRun took
// on ids; they are held, so unpinning cannot fail.
func (bp *BufferPool) unpinRun(ids []PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, id := range ids {
		bp.unpin(id, false)
	}
}

// LogDirtyPages passes the image of every dirty cached page to the
// installed page logger without writing or cleaning the pages. The commit
// protocol calls it before forcing the log, so the redo information for
// the whole operation is durable before any page reaches the volume.
// A nil logger makes this a no-op.
func (bp *BufferPool) LogDirtyPages() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.logger == nil {
		return nil
	}
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.id.Valid() && f.dirty {
			if err := bp.logger.LogPageImage(f.id, f.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushAll writes every dirty cached page to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.id.Valid() && f.dirty {
			if err := bp.writeBack(f); err != nil {
				return err
			}
		}
	}
	return bp.disk.Sync()
}

// DropAll flushes dirty pages and then empties the cache. The benchmark
// harness calls this between queries to emulate the paper's cold-cache
// protocol ("we flushed both the Unix file system buffer and the Paradise
// buffer pool before running each query").
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i := range bp.frames {
		f := &bp.frames[i]
		if !f.id.Valid() {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: DropAll with %v still pinned", f.id)
		}
		if f.dirty {
			if err := bp.writeBack(f); err != nil {
				return err
			}
		}
		delete(bp.table, f.id)
		bp.lruRemove(i)
		f.id = InvalidPageID
		f.dirty = false
		bp.free = append(bp.free, i)
	}
	return bp.disk.Sync()
}

// PinnedPages reports how many frames currently hold a pin; used by tests
// to verify pin discipline.
func (bp *BufferPool) PinnedPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for i := range bp.frames {
		if bp.frames[i].id.Valid() && bp.frames[i].pins > 0 {
			n++
		}
	}
	return n
}
