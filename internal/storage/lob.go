package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Large-object (blob) storage. A blob is written once and read many
// times, which matches how the engine uses blobs: array chunks, serialized
// bitmaps, and catalog metadata are all replaced wholesale rather than
// updated in place. A blob is addressed by the page id of its first
// directory page.
//
// Directory page layout:
//
//	[0:8)   next directory page id (InvalidPageID at end of chain)
//	[8:16)  total blob length in bytes (meaningful on the first page only)
//	[16:20) number of data-page entries on this directory page
//	[20:)   data page ids, 8 bytes each
const (
	lobDirNextOff    = 0
	lobDirLenOff     = 8
	lobDirCountOff   = 16
	lobDirEntriesOff = 20
	lobDirMaxEntries = (PageSize - lobDirEntriesOff) / 8
)

// LOBRef addresses a stored blob.
type LOBRef struct {
	First PageID
}

// InvalidLOBRef is the zero reference.
var InvalidLOBRef = LOBRef{First: InvalidPageID}

// Valid reports whether the reference addresses a blob.
func (r LOBRef) Valid() bool { return r.First.Valid() }

// BlobPages returns the number of pages (directory + data) a blob of n
// bytes occupies, matching what Write reports.
func BlobPages(n int) int {
	numData := (n + PageSize - 1) / PageSize
	numDir := (numData + lobDirMaxEntries - 1) / lobDirMaxEntries
	if numDir == 0 {
		numDir = 1
	}
	return numData + numDir
}

// LOBStore reads and writes blobs through a buffer pool.
type LOBStore struct {
	bp *BufferPool
}

// NewLOBStore creates a blob store over bp.
func NewLOBStore(bp *BufferPool) *LOBStore { return &LOBStore{bp: bp} }

// Write stores data as a new blob and returns its reference and the total
// number of pages the blob occupies (directory + data).
func (s *LOBStore) Write(data []byte) (LOBRef, int, error) {
	numData := (len(data) + PageSize - 1) / PageSize
	pagesUsed := 0

	// Write the data pages first, collecting their ids.
	dataIDs := make([]PageID, 0, numData)
	for off := 0; off < len(data); off += PageSize {
		id, buf, err := s.bp.NewPage()
		if err != nil {
			return InvalidLOBRef, 0, err
		}
		n := copy(buf, data[off:])
		_ = n
		if err := s.bp.Unpin(id, true); err != nil {
			return InvalidLOBRef, 0, err
		}
		dataIDs = append(dataIDs, id)
		pagesUsed++
	}

	// Build the directory chain. The chain is created back to front so
	// each directory page can record its successor when written.
	numDir := (len(dataIDs) + lobDirMaxEntries - 1) / lobDirMaxEntries
	if numDir == 0 {
		numDir = 1 // empty blob still needs a head page for the length
	}
	next := InvalidPageID
	var first PageID
	for d := numDir - 1; d >= 0; d-- {
		id, buf, err := s.bp.NewPage()
		if err != nil {
			return InvalidLOBRef, 0, err
		}
		lo := d * lobDirMaxEntries
		hi := lo + lobDirMaxEntries
		if hi > len(dataIDs) {
			hi = len(dataIDs)
		}
		PutUint64(buf, lobDirNextOff, uint64(next))
		PutUint64(buf, lobDirLenOff, uint64(len(data)))
		PutUint32(buf, lobDirCountOff, uint32(hi-lo))
		for i, did := range dataIDs[lo:hi] {
			PutUint64(buf, lobDirEntriesOff+i*8, uint64(did))
		}
		if err := s.bp.Unpin(id, true); err != nil {
			return InvalidLOBRef, 0, err
		}
		next = id
		first = id
		pagesUsed++
	}
	return LOBRef{First: first}, pagesUsed, nil
}

// Length returns the stored length of the blob in bytes.
func (s *LOBStore) Length(ref LOBRef) (int, error) {
	if !ref.Valid() {
		return 0, errInvalidRef
	}
	buf, err := s.bp.FetchPage(ref.First)
	if err != nil {
		return 0, err
	}
	n := int(GetUint64(buf, lobDirLenOff))
	if err := s.bp.Unpin(ref.First, false); err != nil {
		return 0, err
	}
	return n, nil
}

// Read returns the full contents of the blob.
func (s *LOBStore) Read(ref LOBRef) ([]byte, error) {
	return s.ReadInto(ref, nil)
}

// ReadRange returns n bytes of the blob starting at byte offset off,
// fetching only the directory and data pages that cover the range. The
// bitmap index uses it to retrieve a single value's bitmap without
// loading the whole index blob.
func (s *LOBStore) ReadRange(ref LOBRef, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("storage: ReadRange(%d, %d)", off, n)
	}
	if n == 0 && ref.Valid() {
		return []byte{}, nil // no page covers an empty range
	}
	return s.readInto(ref, off, n, nil)
}

// ReadInto reads the blob into buf, growing it as needed, and returns the
// filled slice. Hot scan paths reuse one buffer across many blobs.
func (s *LOBStore) ReadInto(ref LOBRef, buf []byte) ([]byte, error) {
	return s.readInto(ref, 0, -1, buf)
}

// readInto copies the blob's bytes [off, off+n) (n < 0: to its end) into
// buf[:0]. It grows buf by what each directory page lists, never by the
// length field alone, so a corrupt length cannot ask for more memory
// than the pages it is read from.
func (s *LOBStore) readInto(ref LOBRef, off, n int, buf []byte) ([]byte, error) {
	out := buf[:0]
	err := s.walk(ref, off, n, func(page []byte, listed int, _ *atomic.Uint64) error {
		out = append(slices.Grow(out, listed), page...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Walk hands fn the blob's data pages in order, each cut to the blob's
// length, as the buffer-pool frames they are pinned in. A page is
// borrowed: it is valid only for the duration of the call and must be
// neither written nor retained. It is ReadInto without the copy. An
// error from fn stops the walk and is returned as is; every exit leaves
// nothing pinned.
//
// stamp is the stamp of the page's frame. It reads 0 until a reader
// stores a tag of what it has checked of these bytes, and the pool
// zeroes it whenever the bytes are loaded or may change, so a reader
// that finds its own tag there may skip checks those bytes have passed.
func (s *LOBStore) Walk(ref LOBRef, fn func(page []byte, stamp *atomic.Uint64) error) error {
	return s.walk(ref, 0, -1, func(page []byte, _ int, stamp *atomic.Uint64) error { return fn(page, stamp) })
}

// WalkRange is Walk over the blob's bytes [off, off+n) only, fetching
// just the directory and data pages that cover them: ReadRange without
// the copy. The first and last pages are cut to the range.
func (s *LOBStore) WalkRange(ref LOBRef, off, n int, fn func(page []byte) error) error {
	if off < 0 || n < 0 {
		return fmt.Errorf("storage: WalkRange(%d, %d)", off, n)
	}
	if n == 0 && ref.Valid() {
		return nil // no page covers an empty range
	}
	return s.walk(ref, off, n, func(page []byte, _ int, _ *atomic.Uint64) error { return fn(page) })
}

var errInvalidRef = errors.New("storage: read of invalid blob ref")

// walkFunc takes one page of a blob walk (see walk).
type walkFunc func(page []byte, listed int, stamp *atomic.Uint64) error

// walkRun is how many data pages a blob walk pins under one pool lock.
const walkRun = 8

// blobWalk is one pass over the data bytes [off, end) of a blob. Its
// methods take the callback as an argument rather than a field, which
// keeps the caller's closure off the heap.
type blobWalk struct {
	bp *BufferPool

	off, n int // the requested range; n < 0 = to the blob's end
	end    int // off+n, or the blob's length; set by the first directory page

	first    int // data-page index of the current directory page's first entry
	next     int // data-page index of the next page to hand on
	listedTo int // byte position the current directory page's entries reach
}

// walk hands fn the blob's bytes [off, off+n) (n < 0: to its end) page by
// page, as slices of the frames the pages are pinned in; listed is how
// many of those bytes this page and the rest of its directory page hold,
// and stamp its frame's stamp. The directory is read in place. Data
// pages are pinned walkRun at a time beside the pinned directory page,
// each run under one pool lock; when the pool cannot hold a run, the
// rest of that directory page goes one page at a time with the
// directory page released, as a copying read of one page would.
func (s *LOBStore) walk(ref LOBRef, off, n int, fn walkFunc) error {
	if !ref.Valid() {
		return errInvalidRef
	}
	vol := s.bp.disk.NumPages()
	w := blobWalk{bp: s.bp, off: off, n: n, end: -1}
	for hops, dir := uint64(0), ref.First; dir.Valid(); hops++ {
		if hops >= vol {
			return fmt.Errorf("storage: corrupt blob directory chain from %v", ref.First)
		}
		next, err := w.dirPage(dir, vol, fn)
		if err != nil {
			return err
		}
		if w.first*PageSize >= w.end {
			break
		}
		dir = next
	}
	if got := max(w.off, w.next*PageSize); got < w.end {
		return fmt.Errorf("storage: blob truncated, %d bytes missing", w.end-got)
	}
	return nil
}

// dirPage walks the entries of directory page dir that fall inside the
// range and returns the next directory page.
func (w *blobWalk) dirPage(dir PageID, vol uint64, fn walkFunc) (PageID, error) {
	buf, err := w.bp.FetchPage(dir)
	if err != nil {
		return InvalidPageID, err
	}
	next := PageID(GetUint64(buf, lobDirNextOff))
	count := int(GetUint32(buf, lobDirCountOff))
	if count > lobDirMaxEntries {
		err = fmt.Errorf("storage: corrupt blob directory %v: %d entries", dir, count)
	} else if w.end < 0 {
		err = w.setEnd(GetUint64(buf, lobDirLenOff), vol)
	}
	if err != nil {
		w.bp.Unpin(dir, false)
		return InvalidPageID, err
	}
	first := w.first
	lo := max(w.off/PageSize, w.next, first) - first
	hi := min((w.end+PageSize-1)/PageSize-first, count)
	w.first += count
	w.listedTo = min(w.end, w.first*PageSize)
	var ids [walkRun]PageID
	for i := lo; i < hi; i += walkRun {
		k := min(walkRun, hi-i)
		for j := range k {
			ids[j] = PageID(GetUint64(buf, lobDirEntriesOff+(i+j)*8))
		}
		if err := w.run(ids[:k], first+i, fn); errors.Is(err, ErrBufferPoolFull) {
			return next, w.oneByOne(dir, buf, first, i, hi, fn)
		} else if err != nil {
			w.bp.Unpin(dir, false)
			return InvalidPageID, err
		}
	}
	return next, w.bp.Unpin(dir, false)
}

// setEnd fixes the end of the range from the blob's length field. A
// length no volume of vol pages could hold is corruption, not a request.
func (w *blobWalk) setEnd(length, vol uint64) error {
	if length > vol*PageSize {
		return fmt.Errorf("storage: corrupt blob length %d on a %d-page volume", length, vol)
	}
	if w.end = int(length); w.n >= 0 {
		if uint64(w.off+w.n) > length {
			return fmt.Errorf("storage: ReadRange past blob end (%d+%d > %d)", w.off, w.n, length)
		}
		w.end = w.off + w.n
	}
	return nil
}

// run pins the data pages ids, the first of which has data-page index
// p, under one pool lock, hands them on, and unpins them under one more.
func (w *blobWalk) run(ids []PageID, p int, fn walkFunc) error {
	var frames [walkRun]*frame
	if err := w.bp.pinRun(ids, frames[:len(ids)]); err != nil {
		return err
	}
	defer w.bp.unpinRun(ids)
	for j, f := range frames[:len(ids)] {
		start := (p + j) * PageSize
		lo := max(w.off-start, 0)
		w.next = p + j + 1
		if err := fn(f.data[lo:min(w.end-start, PageSize)], w.listedTo-start-lo, &f.checked); err != nil {
			return err
		}
	}
	return nil
}

// oneByOne copies entries [lo, hi) of the pinned directory page dir,
// whose first entry has data-page index first, releases the directory
// page, and hands the data pages on holding one pin at a time.
func (w *blobWalk) oneByOne(dir PageID, buf []byte, first, lo, hi int, fn walkFunc) error {
	ids := make([]PageID, max(hi-lo, 0))
	for j := range ids {
		ids[j] = PageID(GetUint64(buf, lobDirEntriesOff+(lo+j)*8))
	}
	if err := w.bp.Unpin(dir, false); err != nil {
		return err
	}
	for j := range ids {
		if err := w.run(ids[j:j+1], first+lo+j, fn); err != nil {
			return err
		}
	}
	return nil
}
