// Package heap implements slotted-page heap files: variable-length record
// storage addressed by RID (page, slot). Dimension tables are stored in
// heap files, exactly the structure whose per-tuple overhead the paper's
// "fact file" exists to avoid for the fact table.
package heap

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Data page layout:
//
//	[0:8)   next data page id
//	[8:10)  slot count
//	[10:12) free-end offset (records are packed downward from PageSize)
//	[12:)   slot array: 2-byte record offset + 2-byte record length
const (
	pageNextOff    = 0
	pageSlotCntOff = 8
	pageFreeEndOff = 10
	pageSlotsOff   = 12
	slotSize       = 4

	// MaxRecordSize is the largest record a heap file accepts.
	MaxRecordSize = storage.PageSize - pageSlotsOff - slotSize
)

// Header page layout:
//
//	[0:8)   first data page id
//	[8:16)  last data page id
//	[16:24) number of data pages
//	[24:32) tuple count
const (
	hdrFirstOff  = 0
	hdrLastOff   = 8
	hdrNPagesOff = 16
	hdrNTupsOff  = 24
)

// RID addresses a record within a heap file.
type RID struct {
	Page storage.PageID
	Slot uint16
}

// File is a heap file. It is addressed by the page id of its header page,
// which callers persist in the catalog. Insert moves it to fresh pages
// after a commit, so callers persist Root again after inserting.
type File struct {
	bp  *storage.BufferPool
	hdr storage.PageID
}

// Create allocates a new empty heap file and returns it. The returned
// file's Root() must be recorded by the caller to reopen it later.
func Create(bp *storage.BufferPool) (*File, error) {
	id, buf, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	storage.PutUint64(buf, hdrFirstOff, uint64(storage.InvalidPageID))
	storage.PutUint64(buf, hdrLastOff, uint64(storage.InvalidPageID))
	storage.PutUint64(buf, hdrNPagesOff, 0)
	storage.PutUint64(buf, hdrNTupsOff, 0)
	if err := bp.Unpin(id, true); err != nil {
		return nil, err
	}
	return &File{bp: bp, hdr: id}, nil
}

// Open returns a heap file rooted at hdr.
func Open(bp *storage.BufferPool, hdr storage.PageID) *File {
	return &File{bp: bp, hdr: hdr}
}

// Root returns the header page id identifying this file.
func (f *File) Root() storage.PageID { return f.hdr }

// NumTuples reports the number of records.
func (f *File) NumTuples() (uint64, error) {
	buf, err := f.bp.FetchPage(f.hdr)
	if err != nil {
		return 0, err
	}
	n := storage.GetUint64(buf, hdrNTupsOff)
	return n, f.bp.Unpin(f.hdr, false)
}

// NumPages reports the number of data pages (excluding the header page).
func (f *File) NumPages() (uint64, error) {
	buf, err := f.bp.FetchPage(f.hdr)
	if err != nil {
		return 0, err
	}
	n := storage.GetUint64(buf, hdrNPagesOff)
	return n, f.bp.Unpin(f.hdr, false)
}

// SizeBytes reports the on-disk footprint of the file in bytes (data
// pages plus the header page). The storage study uses this to compare a
// slotted table against the fact file and the compressed array.
func (f *File) SizeBytes() (int64, error) {
	n, err := f.NumPages()
	if err != nil {
		return 0, err
	}
	return int64(n+1) * storage.PageSize, nil
}

func pageFree(buf []byte) int {
	slots := int(storage.GetUint16(buf, pageSlotCntOff))
	freeEnd := int(storage.GetUint16(buf, pageFreeEndOff))
	return freeEnd - (pageSlotsOff + slots*slotSize)
}

func initDataPage(buf []byte) {
	storage.PutUint64(buf, pageNextOff, uint64(storage.InvalidPageID))
	storage.PutUint16(buf, pageSlotCntOff, 0)
	storage.PutUint16(buf, pageFreeEndOff, storage.PageSize)
}

// Insert appends a record and returns its RID. A file the last commit
// reaches is not written in place: the first Insert after a commit
// copies it, header and chain, into fresh pages in scan order, and Root
// moves to the copy. The old pages stay as they are for readers that
// hold them, until the next open's mark pass frees them.
func (f *File) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("heap: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	if !f.bp.Writable(f.hdr) {
		cp, err := Create(f.bp)
		if err != nil {
			return RID{}, err
		}
		if err := f.Scan(func(_ RID, rec []byte) error {
			_, err := cp.Insert(rec)
			return err
		}); err != nil {
			return RID{}, err
		}
		f.hdr = cp.hdr
	}
	hdr, err := f.bp.FetchPageForWrite(f.hdr)
	if err != nil {
		return RID{}, err
	}
	last := storage.PageID(storage.GetUint64(hdr, hdrLastOff))

	// Try the last data page first.
	if last.Valid() {
		buf, err := f.bp.FetchPageForWrite(last)
		if err != nil {
			f.bp.Unpin(f.hdr, false)
			return RID{}, err
		}
		if pageFree(buf) >= len(rec)+slotSize {
			rid := insertInto(buf, last, rec)
			if err := f.bp.Unpin(last, true); err != nil {
				f.bp.Unpin(f.hdr, false)
				return RID{}, err
			}
			storage.PutUint64(hdr, hdrNTupsOff, storage.GetUint64(hdr, hdrNTupsOff)+1)
			return rid, f.bp.Unpin(f.hdr, true)
		}
		if err := f.bp.Unpin(last, false); err != nil {
			f.bp.Unpin(f.hdr, false)
			return RID{}, err
		}
	}

	// Allocate a fresh data page and link it in.
	newID, buf, err := f.bp.NewPage()
	if err != nil {
		f.bp.Unpin(f.hdr, false)
		return RID{}, err
	}
	initDataPage(buf)
	rid := insertInto(buf, newID, rec)
	if err := f.bp.Unpin(newID, true); err != nil {
		f.bp.Unpin(f.hdr, false)
		return RID{}, err
	}

	if last.Valid() {
		lbuf, err := f.bp.FetchPageForWrite(last)
		if err != nil {
			f.bp.Unpin(f.hdr, false)
			return RID{}, err
		}
		storage.PutUint64(lbuf, pageNextOff, uint64(newID))
		if err := f.bp.Unpin(last, true); err != nil {
			f.bp.Unpin(f.hdr, false)
			return RID{}, err
		}
	} else {
		storage.PutUint64(hdr, hdrFirstOff, uint64(newID))
	}
	storage.PutUint64(hdr, hdrLastOff, uint64(newID))
	storage.PutUint64(hdr, hdrNPagesOff, storage.GetUint64(hdr, hdrNPagesOff)+1)
	storage.PutUint64(hdr, hdrNTupsOff, storage.GetUint64(hdr, hdrNTupsOff)+1)
	return rid, f.bp.Unpin(f.hdr, true)
}

// insertInto places rec on the page, which must have room.
func insertInto(buf []byte, pid storage.PageID, rec []byte) RID {
	slots := int(storage.GetUint16(buf, pageSlotCntOff))
	freeEnd := int(storage.GetUint16(buf, pageFreeEndOff))
	off := freeEnd - len(rec)
	copy(buf[off:freeEnd], rec)
	slotOff := pageSlotsOff + slots*slotSize
	storage.PutUint16(buf, slotOff, uint16(off))
	storage.PutUint16(buf, slotOff+2, uint16(len(rec)))
	storage.PutUint16(buf, pageSlotCntOff, uint16(slots+1))
	storage.PutUint16(buf, pageFreeEndOff, uint16(off))
	return RID{Page: pid, Slot: uint16(slots)}
}

// Pages hands mark every page of the file: the header page, then the
// data pages in chain order. Each page is marked before it is read, so a
// mark that refuses a page seen before stops a chain that loops.
func (f *File) Pages(mark func(first storage.PageID, n int) error) error {
	if err := mark(f.hdr, 1); err != nil {
		return err
	}
	hdr, err := f.bp.FetchPage(f.hdr)
	if err != nil {
		return err
	}
	page := storage.PageID(storage.GetUint64(hdr, hdrFirstOff))
	f.bp.Unpin(f.hdr, false)
	for page.Valid() {
		if err := mark(page, 1); err != nil {
			return err
		}
		buf, err := f.bp.FetchPage(page)
		if err != nil {
			return err
		}
		next := storage.PageID(storage.GetUint64(buf, pageNextOff))
		f.bp.Unpin(page, false)
		page = next
	}
	return nil
}

// Scan invokes fn for every record in file order. The record slice
// passed to fn is only valid during the call. Returning a non-nil error
// from fn stops the scan and propagates the error; return ErrStopScan to
// stop early without error. A chain longer than the header's page count
// or the volume (one that loops, say) or a slot that runs past its page
// is an error.
func (f *File) Scan(fn func(rid RID, rec []byte) error) error {
	hdr, err := f.bp.FetchPage(f.hdr)
	if err != nil {
		return err
	}
	page := storage.PageID(storage.GetUint64(hdr, hdrFirstOff))
	npages := min(storage.GetUint64(hdr, hdrNPagesOff), f.bp.Disk().NumPages())
	if err := f.bp.Unpin(f.hdr, false); err != nil {
		return err
	}
	for walked := uint64(0); page.Valid(); walked++ {
		if walked == npages {
			return fmt.Errorf("heap %v: page chain runs past its %d pages", f.hdr, npages)
		}
		buf, err := f.bp.FetchPage(page)
		if err != nil {
			return err
		}
		if err := scanPage(page, buf, fn); err != nil {
			f.bp.Unpin(page, false)
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
		next := storage.PageID(storage.GetUint64(buf, pageNextOff))
		if err := f.bp.Unpin(page, false); err != nil {
			return err
		}
		page = next
	}
	return nil
}

// scanPage invokes fn for every record on one data page.
func scanPage(page storage.PageID, buf []byte, fn func(rid RID, rec []byte) error) error {
	slots := int(storage.GetUint16(buf, pageSlotCntOff))
	if pageSlotsOff+slots*slotSize > len(buf) {
		return fmt.Errorf("heap: page %v: %d slots overrun the page", page, slots)
	}
	for s := 0; s < slots; s++ {
		slotOff := pageSlotsOff + s*slotSize
		off := int(storage.GetUint16(buf, slotOff))
		n := int(storage.GetUint16(buf, slotOff+2))
		if off+n > len(buf) {
			return fmt.Errorf("heap: page %v: slot %d runs past the page end", page, s)
		}
		if err := fn(RID{Page: page, Slot: uint16(s)}, buf[off:off+n]); err != nil {
			return err
		}
	}
	return nil
}

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = errors.New("heap: stop scan")
