package storage

import (
	"errors"
	"sync"
	"testing"
)

// faultDisk wraps a DiskManager and fails operations once a countdown
// expires, for error-propagation testing.
type faultDisk struct {
	mu        sync.Mutex
	inner     DiskManager
	failAfter int // ops until failure; -1 = never
	err       error
}

var errInjected = errors.New("injected disk fault")

func newFaultDisk(inner DiskManager, failAfter int) *faultDisk {
	return &faultDisk{inner: inner, failAfter: failAfter, err: errInjected}
}

func (d *faultDisk) tick() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failAfter < 0 {
		return nil
	}
	if d.failAfter == 0 {
		return d.err
	}
	d.failAfter--
	return nil
}

func (d *faultDisk) ReadPage(id PageID, buf []byte) error {
	if err := d.tick(); err != nil {
		return err
	}
	return d.inner.ReadPage(id, buf)
}

func (d *faultDisk) WritePage(id PageID, buf []byte) error {
	if err := d.tick(); err != nil {
		return err
	}
	return d.inner.WritePage(id, buf)
}

func (d *faultDisk) Allocate(n int) (PageID, error) {
	if err := d.tick(); err != nil {
		return InvalidPageID, err
	}
	return d.inner.Allocate(n)
}

func (d *faultDisk) NumPages() uint64 { return d.inner.NumPages() }
func (d *faultDisk) Sync() error      { return d.inner.Sync() }
func (d *faultDisk) Close() error     { return d.inner.Close() }

// TestBufferPoolSurfacesDiskFaults drives the pool until the injected
// fault fires on every path: fetch, eviction write-back, allocation.
func TestBufferPoolSurfacesDiskFaults(t *testing.T) {
	// Fetch failure.
	fd := newFaultDisk(NewMemDiskManager(), -1)
	bp := NewBufferPool(fd, 2)
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, true)
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	fd.mu.Lock()
	fd.failAfter = 0
	fd.mu.Unlock()
	if _, err := bp.FetchPage(id); !errors.Is(err, errInjected) {
		t.Fatalf("FetchPage fault = %v", err)
	}
	fd.mu.Lock()
	fd.failAfter = -1
	fd.mu.Unlock()

	// Eviction write-back failure: fill both frames dirty, then make
	// the next write fail while bringing in a third page.
	a, _, _ := bp.NewPage()
	bp.Unpin(a, true)
	b, _, _ := bp.NewPage()
	bp.Unpin(b, true)
	fd.mu.Lock()
	fd.failAfter = 1 // allocation of the third page succeeds, write-back fails
	fd.mu.Unlock()
	if _, _, err := bp.NewPage(); !errors.Is(err, errInjected) {
		t.Fatalf("eviction fault = %v", err)
	}
	fd.mu.Lock()
	fd.failAfter = -1
	fd.mu.Unlock()

	// FlushAll failure.
	fd.mu.Lock()
	fd.failAfter = 0
	fd.mu.Unlock()
	if err := bp.FlushAll(); !errors.Is(err, errInjected) {
		t.Fatalf("FlushAll fault = %v", err)
	}
}

// TestLOBSurfacesDiskFaults checks blob read/write error propagation.
func TestLOBSurfacesDiskFaults(t *testing.T) {
	fd := newFaultDisk(NewMemDiskManager(), -1)
	bp := NewBufferPool(fd, 4)
	s := NewLOBStore(bp)
	data := make([]byte, 3*PageSize)
	ref, _, err := s.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	fd.mu.Lock()
	fd.failAfter = 2
	fd.mu.Unlock()
	if _, err := s.Read(ref); !errors.Is(err, errInjected) {
		t.Fatalf("blob read fault = %v", err)
	}
	fd.mu.Lock()
	fd.failAfter = 0
	fd.mu.Unlock()
	if _, _, err := s.Write(data); !errors.Is(err, errInjected) {
		t.Fatalf("blob write fault = %v", err)
	}
}
