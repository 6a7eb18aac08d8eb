// Package factfile implements the paper's "fact file" (§4.4): a file
// structure optimized for tables of small fixed-length records. Pages are
// allocated in extents of contiguous pages, records are packed with no
// slotted-page overhead, and a tuple number maps arithmetically to
// (extent, page within extent, offset within page). The file supports two
// access paths: a full sequential scan (used by the StarJoin consolidation
// operator) and positional fetch driven by a bitmap of qualifying tuple
// numbers (used by the bitmap-index selection algorithm).
package factfile

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// DefaultExtentPages is the number of contiguous pages per extent.
const DefaultExtentPages = 64

// Header page layout:
//
//	[0:4)   record size in bytes
//	[4:8)   pages per extent
//	[8:16)  tuple count
//	[16:20) extent count
//	[20:28) next directory page (overflow chain)
//	[28:)   extent first-page ids, 8 bytes each
//
// Overflow directory page layout:
//
//	[0:8)   next directory page
//	[8:)    extent first-page ids
const (
	hdrRecSizeOff   = 0
	hdrExtPagesOff  = 4
	hdrNTupsOff     = 8
	hdrNExtentsOff  = 16
	hdrNextDirOff   = 20
	hdrEntriesOff   = 28
	hdrMaxEntries   = (storage.PageSize - hdrEntriesOff) / 8
	ovfNextOff      = 0
	ovfEntriesOff   = 8
	ovfMaxEntries   = (storage.PageSize - ovfEntriesOff) / 8
	maxRecordStride = storage.PageSize
)

// ErrOutOfRange is returned for tuple numbers past the end of the file.
var ErrOutOfRange = errors.New("factfile: tuple number out of range")

// ErrStopScan stops a scan early without error.
var ErrStopScan = errors.New("factfile: stop scan")

// File is a fact file. Records are fixed length and addressed by tuple
// number, 0-based in insertion order.
type File struct {
	bp        *storage.BufferPool
	hdr       storage.PageID
	recSize   int
	extPages  int
	recsPage  int // records per page
	recsExt   int // records per extent
	numTuples uint64
	extents   []storage.PageID // first page of each extent, cached
}

// Create allocates a new fact file for records of recSize bytes, with
// extentPages contiguous pages per extent (DefaultExtentPages if <= 0).
func Create(bp *storage.BufferPool, recSize, extentPages int) (*File, error) {
	if recSize <= 0 || recSize > maxRecordStride {
		return nil, fmt.Errorf("factfile: record size %d out of range", recSize)
	}
	if extentPages <= 0 {
		extentPages = DefaultExtentPages
	}
	id, buf, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	storage.PutUint32(buf, hdrRecSizeOff, uint32(recSize))
	storage.PutUint32(buf, hdrExtPagesOff, uint32(extentPages))
	storage.PutUint64(buf, hdrNTupsOff, 0)
	storage.PutUint32(buf, hdrNExtentsOff, 0)
	storage.PutUint64(buf, hdrNextDirOff, uint64(storage.InvalidPageID))
	if err := bp.Unpin(id, true); err != nil {
		return nil, err
	}
	return &File{
		bp:       bp,
		hdr:      id,
		recSize:  recSize,
		extPages: extentPages,
		recsPage: storage.PageSize / recSize,
		recsExt:  (storage.PageSize / recSize) * extentPages,
	}, nil
}

// Open loads the fact file rooted at hdr, reading its extent directory.
func Open(bp *storage.BufferPool, hdr storage.PageID) (*File, error) {
	buf, err := bp.FetchPage(hdr)
	if err != nil {
		return nil, err
	}
	f := &File{
		bp:        bp,
		hdr:       hdr,
		recSize:   int(storage.GetUint32(buf, hdrRecSizeOff)),
		extPages:  int(storage.GetUint32(buf, hdrExtPagesOff)),
		numTuples: storage.GetUint64(buf, hdrNTupsOff),
	}
	if f.recSize <= 0 || f.recSize > maxRecordStride || f.extPages <= 0 {
		bp.Unpin(hdr, false)
		return nil, fmt.Errorf("factfile: corrupt header at %v", hdr)
	}
	f.recsPage = storage.PageSize / f.recSize
	f.recsExt = f.recsPage * f.extPages
	numExt := int(storage.GetUint32(buf, hdrNExtentsOff))
	// Every extent holds at least one page, so a count the volume could
	// not hold is corrupt, not a request for a huge directory.
	if uint64(numExt) > bp.Disk().NumPages() {
		bp.Unpin(hdr, false)
		return nil, fmt.Errorf("factfile: corrupt header at %v: %d extents on a %d-page volume", hdr, numExt, bp.Disk().NumPages())
	}
	nHere := min(numExt, hdrMaxEntries)
	f.extents = make([]storage.PageID, 0, numExt)
	for i := 0; i < nHere; i++ {
		f.extents = append(f.extents, storage.PageID(storage.GetUint64(buf, hdrEntriesOff+i*8)))
	}
	next := storage.PageID(storage.GetUint64(buf, hdrNextDirOff))
	if err := bp.Unpin(hdr, false); err != nil {
		return nil, err
	}
	for next.Valid() && len(f.extents) < numExt {
		obuf, err := bp.FetchPage(next)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ovfMaxEntries && len(f.extents) < numExt; i++ {
			f.extents = append(f.extents, storage.PageID(storage.GetUint64(obuf, ovfEntriesOff+i*8)))
		}
		nn := storage.PageID(storage.GetUint64(obuf, ovfNextOff))
		if err := bp.Unpin(next, false); err != nil {
			return nil, err
		}
		next = nn
	}
	if len(f.extents) != numExt {
		return nil, fmt.Errorf("factfile: directory truncated: %d of %d extents", len(f.extents), numExt)
	}
	return f, nil
}

// Pages hands mark every page of the file: the header, the directory's
// overflow pages in chain order, and each extent whole. A mark that
// refuses a page seen before stops an overflow chain that loops.
func (f *File) Pages(mark func(first storage.PageID, n int) error) error {
	if err := mark(f.hdr, 1); err != nil {
		return err
	}
	buf, err := f.bp.FetchPage(f.hdr)
	if err != nil {
		return err
	}
	next := storage.PageID(storage.GetUint64(buf, hdrNextDirOff))
	f.bp.Unpin(f.hdr, false)
	for held := hdrMaxEntries; held < len(f.extents); held += ovfMaxEntries {
		if err := mark(next, 1); err != nil {
			return err
		}
		obuf, err := f.bp.FetchPage(next)
		if err != nil {
			return err
		}
		nn := storage.PageID(storage.GetUint64(obuf, ovfNextOff))
		f.bp.Unpin(next, false)
		next = nn
	}
	for _, first := range f.extents {
		if err := mark(first, f.extPages); err != nil {
			return err
		}
	}
	return nil
}

// Root returns the header page id identifying this file.
func (f *File) Root() storage.PageID { return f.hdr }

// RecordSize returns the fixed record length in bytes.
func (f *File) RecordSize() int { return f.recSize }

// NumTuples reports the number of records in the file.
func (f *File) NumTuples() uint64 { return f.numTuples }

// NumExtents reports the number of allocated extents.
func (f *File) NumExtents() int { return len(f.extents) }

// TuplesPerPage reports how many records fit on one page.
func (f *File) TuplesPerPage() int { return f.recsPage }

// ExtentTuples reports the tuple capacity of one extent — the natural
// alignment for partitioning a parallel scan, since tuple number maps
// arithmetically to (extent, page, offset) and ranges cut on extent
// boundaries never share pages across workers.
func (f *File) ExtentTuples() int { return f.recsExt }

// SizeBytes reports the on-disk footprint: header, directory overflow
// pages, and all extent pages.
func (f *File) SizeBytes() int64 {
	dirOverflow := 0
	if len(f.extents) > hdrMaxEntries {
		dirOverflow = (len(f.extents) - hdrMaxEntries + ovfMaxEntries - 1) / ovfMaxEntries
	}
	return int64(1+dirOverflow+len(f.extents)*f.extPages) * storage.PageSize
}

// locate maps a tuple number to its page and byte offset.
func (f *File) locate(tup uint64) (storage.PageID, int) {
	ext := int(tup) / f.recsExt
	within := int(tup) % f.recsExt
	page := f.extents[ext] + storage.PageID(within/f.recsPage)
	off := (within % f.recsPage) * f.recSize
	return page, off
}

// addExtent allocates a new extent and records it in the directory.
func (f *File) addExtent() error {
	first, err := f.bp.AllocateExtent(f.extPages)
	if err != nil {
		return err
	}
	idx := len(f.extents)
	f.extents = append(f.extents, first)

	hdr, err := f.bp.FetchPageForWrite(f.hdr)
	if err != nil {
		return err
	}
	storage.PutUint32(hdr, hdrNExtentsOff, uint32(len(f.extents)))
	if idx < hdrMaxEntries {
		storage.PutUint64(hdr, hdrEntriesOff+idx*8, uint64(first))
		return f.bp.Unpin(f.hdr, true)
	}
	// Walk (creating as needed) the overflow chain to the owning page.
	ovfIdx := idx - hdrMaxEntries
	pageNo := ovfIdx / ovfMaxEntries
	slot := ovfIdx % ovfMaxEntries
	cur := storage.PageID(storage.GetUint64(hdr, hdrNextDirOff))
	if !cur.Valid() {
		id, nbuf, err := f.bp.NewPage()
		if err != nil {
			f.bp.Unpin(f.hdr, false)
			return err
		}
		storage.PutUint64(nbuf, ovfNextOff, uint64(storage.InvalidPageID))
		if err := f.bp.Unpin(id, true); err != nil {
			f.bp.Unpin(f.hdr, false)
			return err
		}
		storage.PutUint64(hdr, hdrNextDirOff, uint64(id))
		cur = id
	}
	if err := f.bp.Unpin(f.hdr, true); err != nil {
		return err
	}
	for p := 0; ; p++ {
		buf, err := f.bp.FetchPageForWrite(cur)
		if err != nil {
			return err
		}
		if p == pageNo {
			storage.PutUint64(buf, ovfEntriesOff+slot*8, uint64(first))
			return f.bp.Unpin(cur, true)
		}
		next := storage.PageID(storage.GetUint64(buf, ovfNextOff))
		if !next.Valid() {
			id, nbuf, err := f.bp.NewPage()
			if err != nil {
				f.bp.Unpin(cur, false)
				return err
			}
			storage.PutUint64(nbuf, ovfNextOff, uint64(storage.InvalidPageID))
			if err := f.bp.Unpin(id, true); err != nil {
				f.bp.Unpin(cur, false)
				return err
			}
			storage.PutUint64(buf, ovfNextOff, uint64(id))
			if err := f.bp.Unpin(cur, true); err != nil {
				return err
			}
			cur = id
			continue
		}
		if err := f.bp.Unpin(cur, false); err != nil {
			return err
		}
		cur = next
	}
}

// Append adds a record to the end of the file and returns its tuple
// number.
func (f *File) Append(rec []byte) (uint64, error) {
	if len(rec) != f.recSize {
		return 0, fmt.Errorf("factfile: record of %d bytes, want %d", len(rec), f.recSize)
	}
	tup := f.numTuples
	if int(tup)/f.recsExt >= len(f.extents) {
		if err := f.addExtent(); err != nil {
			return 0, err
		}
	}
	page, off := f.locate(tup)
	buf, err := f.bp.FetchPageForWrite(page)
	if err != nil {
		return 0, err
	}
	copy(buf[off:off+f.recSize], rec)
	if err := f.bp.Unpin(page, true); err != nil {
		return 0, err
	}
	f.numTuples++
	hdr, err := f.bp.FetchPageForWrite(f.hdr)
	if err != nil {
		return 0, err
	}
	storage.PutUint64(hdr, hdrNTupsOff, f.numTuples)
	return tup, f.bp.Unpin(f.hdr, true)
}

// AppendBatch adds records back to back; rec holds k consecutive records.
// It amortizes header updates across the batch during bulk loads.
func (f *File) AppendBatch(recs []byte) (first uint64, err error) {
	if len(recs)%f.recSize != 0 {
		return 0, fmt.Errorf("factfile: batch of %d bytes not a multiple of record size %d", len(recs), f.recSize)
	}
	first = f.numTuples
	k := len(recs) / f.recSize
	for i := 0; i < k; {
		tup := f.numTuples
		if int(tup)/f.recsExt >= len(f.extents) {
			if err := f.addExtent(); err != nil {
				return 0, err
			}
		}
		page, off := f.locate(tup)
		buf, err := f.bp.FetchPageForWrite(page)
		if err != nil {
			return 0, err
		}
		// Fill as much of this page as the batch allows.
		for off+f.recSize <= storage.PageSize && i < k {
			copy(buf[off:off+f.recSize], recs[i*f.recSize:(i+1)*f.recSize])
			off += f.recSize
			i++
			f.numTuples++
		}
		if err := f.bp.Unpin(page, true); err != nil {
			return 0, err
		}
	}
	hdr, err := f.bp.FetchPageForWrite(f.hdr)
	if err != nil {
		return 0, err
	}
	storage.PutUint64(hdr, hdrNTupsOff, f.numTuples)
	return first, f.bp.Unpin(f.hdr, true)
}

// Get copies the record with tuple number tup into out (length
// RecordSize) and returns it; out may be nil, in which case a new slice
// is allocated.
func (f *File) Get(tup uint64, out []byte) ([]byte, error) {
	if tup >= f.numTuples {
		return nil, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, tup, f.numTuples)
	}
	if out == nil {
		out = make([]byte, f.recSize)
	}
	page, off := f.locate(tup)
	buf, err := f.bp.FetchPage(page)
	if err != nil {
		return nil, err
	}
	copy(out, buf[off:off+f.recSize])
	return out, f.bp.Unpin(page, false)
}

// Scan invokes fn for every record in tuple-number order. The record
// slice aliases the page and is valid only during the call. Return
// ErrStopScan from fn to stop early without error.
func (f *File) Scan(fn func(tup uint64, rec []byte) error) error {
	return f.ScanRange(0, f.numTuples, fn)
}

// ScanRange invokes fn for every record with lo <= tup < hi in tuple-
// number order, with the same callback contract as Scan. hi is clamped
// to the file's tuple count. Workers of a partitioned StarJoin each scan
// one disjoint range; the O(1) locate makes starting mid-file free.
func (f *File) ScanRange(lo, hi uint64, fn func(tup uint64, rec []byte) error) error {
	if hi > f.numTuples {
		hi = f.numTuples
	}
	tup := lo
	for tup < hi {
		page, off := f.locate(tup)
		buf, err := f.bp.FetchPage(page)
		if err != nil {
			return err
		}
		for off+f.recSize <= storage.PageSize && tup < hi {
			if err := fn(tup, buf[off:off+f.recSize]); err != nil {
				f.bp.Unpin(page, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
			off += f.recSize
			tup++
		}
		if err := f.bp.Unpin(page, false); err != nil {
			return err
		}
	}
	return nil
}

// BitIterator yields the positions of set bits in ascending order. The
// bitmap index's Bitmap type implements it.
type BitIterator interface {
	// NextSet returns the first set position >= from, or ok=false when
	// no set positions remain.
	NextSet(from uint64) (pos uint64, ok bool)
}

// FetchBits invokes fn for each tuple whose number is set in bits, in
// ascending tuple order. This is the fact file's bitmap interface from
// §4.4: "takes a bitmap and retrieves the tuples corresponding to
// non-zero bit positions". Consecutive tuples on the same page share one
// page fetch.
func (f *File) FetchBits(bits BitIterator, fn func(tup uint64, rec []byte) error) error {
	pos, ok := bits.NextSet(0)
	for ok {
		if pos >= f.numTuples {
			return fmt.Errorf("%w: bit %d >= %d tuples", ErrOutOfRange, pos, f.numTuples)
		}
		page, off := f.locate(pos)
		buf, err := f.bp.FetchPage(page)
		if err != nil {
			return err
		}
		// Serve every qualifying tuple resident on this page.
		for {
			if err := fn(pos, buf[off:off+f.recSize]); err != nil {
				f.bp.Unpin(page, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
			pos, ok = bits.NextSet(pos + 1)
			if !ok || pos >= f.numTuples {
				break
			}
			var nextPage storage.PageID
			nextPage, off = f.locate(pos)
			if nextPage != page {
				break
			}
		}
		if err := f.bp.Unpin(page, false); err != nil {
			return err
		}
	}
	return nil
}
