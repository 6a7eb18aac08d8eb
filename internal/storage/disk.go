package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// DiskManager moves pages between memory and stable storage. All
// implementations must be safe for concurrent use.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the volume by n contiguous pages and returns the
	// first id. Reusing freed pages is the buffer pool's allocator's job,
	// not the volume's.
	Allocate(n int) (PageID, error)
	// NumPages reports how many pages have been allocated.
	NumPages() uint64
	// Sync flushes any buffered writes to stable storage.
	Sync() error
	// Close releases resources held by the manager.
	Close() error
}

// A Discarder is a DiskManager told when pages stop holding anything a
// reader can reach, so that it may drop their contents. The pages stay
// allocated: the buffer pool's allocator hands them out again, and what
// a read of one returns before it is written again is unspecified.
type Discarder interface {
	Discard(first PageID, n int)
}

// FileDiskManager stores pages in a single operating-system file, the
// equivalent of a SHORE volume.
type FileDiskManager struct {
	grow  sync.Mutex // held across an extension of the file
	file  *os.File
	pages atomic.Uint64
}

var _ DiskManager = (*FileDiskManager)(nil)

// OpenFileDiskManager opens (creating if necessary) a database file.
func OpenFileDiskManager(path string) (*FileDiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, st.Size())
	}
	d := &FileDiskManager{file: f}
	d.pages.Store(uint64(st.Size() / PageSize))
	return d, nil
}

// ReadPage implements DiskManager.
func (d *FileDiskManager) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrShortPage
	}
	if uint64(id) >= d.pages.Load() {
		return fmt.Errorf("%w: %v", ErrPageNotAllocated, id)
	}
	_, err := d.file.ReadAt(buf, int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read %v: %w", id, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDiskManager) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrShortPage
	}
	if uint64(id) >= d.pages.Load() {
		return fmt.Errorf("%w: %v", ErrPageNotAllocated, id)
	}
	if _, err := d.file.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write %v: %w", id, err)
	}
	return nil
}

// Allocate implements DiskManager. The new pages read back zero-filled,
// as the file system extends the file with zeros. The file is extended
// before the page count moves, under one lock, so no page is counted
// before the file covers it, and a failed extension counts none.
func (d *FileDiskManager) Allocate(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("storage: allocate %d pages", n)
	}
	d.grow.Lock()
	defer d.grow.Unlock()
	first := d.pages.Load()
	if err := d.file.Truncate(int64(first+uint64(n)) * PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: extend to %d pages: %w", first+uint64(n), err)
	}
	d.pages.Store(first + uint64(n))
	return PageID(first), nil
}

// NumPages implements DiskManager.
func (d *FileDiskManager) NumPages() uint64 { return d.pages.Load() }

// Sync implements DiskManager.
func (d *FileDiskManager) Sync() error { return d.file.Sync() }

// Close implements DiskManager.
func (d *FileDiskManager) Close() error { return d.file.Close() }

// MemDiskManager keeps pages in memory. It is used by tests and by
// benchmarks that want to isolate CPU cost from the file system, and it
// still counts page transfers so I/O behaviour remains observable.
type MemDiskManager struct {
	mu    sync.Mutex
	pages [][]byte
}

var (
	_ DiskManager = (*MemDiskManager)(nil)
	_ Discarder   = (*MemDiskManager)(nil)
)

// NewMemDiskManager returns an empty in-memory volume.
func NewMemDiskManager() *MemDiskManager { return &MemDiskManager{} }

// ReadPage implements DiskManager.
func (d *MemDiskManager) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrShortPage
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint64(id) >= uint64(len(d.pages)) {
		return fmt.Errorf("%w: %v", ErrPageNotAllocated, id)
	}
	if d.pages[id] == nil { // discarded
		clear(buf)
		return nil
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDiskManager) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrShortPage
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint64(id) >= uint64(len(d.pages)) {
		return fmt.Errorf("%w: %v", ErrPageNotAllocated, id)
	}
	if d.pages[id] == nil {
		d.pages[id] = make([]byte, PageSize)
	}
	copy(d.pages[id], buf)
	return nil
}

// Allocate implements DiskManager.
func (d *MemDiskManager) Allocate(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("storage: allocate %d pages", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, PageSize))
	}
	return first, nil
}

// Discard implements Discarder: a freed page's memory goes back to the
// runtime, and the page reads as zeros until it is written again.
func (d *MemDiskManager) Discard(first PageID, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := first; id < first+PageID(n) && uint64(id) < uint64(len(d.pages)); id++ {
		d.pages[id] = nil
	}
}

// NumPages implements DiskManager.
func (d *MemDiskManager) NumPages() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(len(d.pages))
}

// Sync implements DiskManager.
func (d *MemDiskManager) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDiskManager) Close() error { return nil }
