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
// updated in place. A blob is one extent of contiguous pages, addressed
// by its first page; nothing else about it is stored.
//
// A chunk's extent holds the chunk's bytes from byte 0: the chunk
// directory keeps each chunk's first page and byte length, as the paper
// keeps "the OID and the length of each chunk" (§3.3). A self-describing
// blob (catalog, array master, chunk-store directory, bitmap index)
// starts with its length, so its first page alone addresses it:
//
//	[0:8)  blob length in bytes
//	[8:)   the blob's bytes, running on through the extent's pages
const lobLenSize = 8

// LOBRef addresses a stored blob.
type LOBRef struct {
	First PageID
}

// InvalidLOBRef is the zero reference.
var InvalidLOBRef = LOBRef{First: InvalidPageID}

// Valid reports whether the reference addresses a blob.
func (r LOBRef) Valid() bool { return r.First.Valid() }

// ExtentPages returns the number of pages the extent of an n-byte chunk
// occupies, matching what WriteExtent reports: at least one.
func ExtentPages(n int) int { return max(1, (n+PageSize-1)/PageSize) }

// BlobPages returns the number of pages a self-describing blob of n
// bytes occupies, matching what Write reports.
func BlobPages(n int) int { return ExtentPages(lobLenSize + n) }

// LOBStore reads and writes blobs through a buffer pool.
type LOBStore struct {
	bp *BufferPool
}

// NewLOBStore creates a blob store over bp.
func NewLOBStore(bp *BufferPool) *LOBStore { return &LOBStore{bp: bp} }

// Write stores data as a new self-describing blob and returns its
// reference and the number of pages it occupies.
func (s *LOBStore) Write(data []byte) (LOBRef, int, error) {
	return s.write(data, lobLenSize)
}

// WriteExtent stores data from byte 0 of a new extent and returns its
// reference and the number of pages it occupies. The caller keeps the
// length: ReadExtent and WalkExtent take it back.
func (s *LOBStore) WriteExtent(data []byte) (LOBRef, int, error) {
	return s.write(data, 0)
}

// write allocates one extent for a skip-byte length header and data, and
// fills its pages, each pinned fresh.
func (s *LOBStore) write(data []byte, skip int) (LOBRef, int, error) {
	pages := ExtentPages(skip + len(data))
	first, err := s.bp.AllocateExtent(pages)
	if err != nil {
		return InvalidLOBRef, 0, err
	}
	for i := range pages {
		id := first + PageID(i)
		buf, err := s.bp.pinFresh(id)
		if err != nil {
			return InvalidLOBRef, 0, err
		}
		if lo := i*PageSize - skip; lo < 0 { // data's byte lo is the page's byte 0
			PutUint64(buf, 0, uint64(len(data)))
			copy(buf[skip:], data)
		} else {
			copy(buf, data[lo:])
		}
		s.bp.Unpin(id, true) // pinned just above, so it cannot fail
	}
	return LOBRef{First: first}, pages, nil
}

// Length returns the length a self-describing blob's header records.
// Every read checks it against the volume's end before sizing anything.
func (s *LOBStore) Length(ref LOBRef) (int, error) {
	if !ref.Valid() {
		return 0, errInvalidRef
	}
	buf, err := s.bp.FetchPage(ref.First)
	if err != nil {
		return 0, err
	}
	n := int(GetUint64(buf, 0))
	s.bp.Unpin(ref.First, false) // pinned just above, so it cannot fail
	return n, nil
}

// Read returns the full contents of a self-describing blob.
func (s *LOBStore) Read(ref LOBRef) ([]byte, error) {
	n, err := s.Length(ref)
	if err != nil {
		return nil, err
	}
	return s.readInto(ref.First, lobLenSize, n, nil)
}

// ReadRange returns n bytes of a self-describing blob starting at byte
// offset off, fetching only the pages that cover the range. The bitmap
// index uses it to retrieve a single value's bitmap without loading the
// whole index blob.
func (s *LOBStore) ReadRange(ref LOBRef, off, n int) ([]byte, error) {
	if err := s.checkRange(ref, off, n); err != nil {
		return nil, err
	}
	return s.readInto(ref.First, lobLenSize+off, n, nil)
}

// WalkRange hands fn a self-describing blob's bytes [off, off+n) page by
// page, as slices of the frames the pages are pinned in: ReadRange
// without the copy. A page is borrowed: it is valid only for the
// duration of the call and must be neither written nor retained.
func (s *LOBStore) WalkRange(ref LOBRef, off, n int, fn func(page []byte) error) error {
	if err := s.checkRange(ref, off, n); err != nil {
		return err
	}
	return s.walk(ref.First, lobLenSize+off, n, func(page []byte, _ *atomic.Uint64) error { return fn(page) })
}

// checkRange refuses a range outside a self-describing blob.
func (s *LOBStore) checkRange(ref LOBRef, off, n int) error {
	if off < 0 || n < 0 {
		return fmt.Errorf("storage: blob range (%d, %d)", off, n)
	}
	length, err := s.Length(ref)
	if err != nil {
		return err
	}
	if off > length || n > length-off {
		return fmt.Errorf("storage: blob range past its end (%d+%d > %d)", off, n, length)
	}
	return nil
}

// ReadExtent reads the n bytes of the extent at ref into buf, growing it
// as needed, and returns the filled slice. Hot scan paths reuse one
// buffer across many chunks.
func (s *LOBStore) ReadExtent(ref LOBRef, n int, buf []byte) ([]byte, error) {
	return s.readInto(ref.First, 0, n, buf)
}

// WalkExtent hands fn the n bytes of the extent at ref page by page, as
// the buffer-pool frames they are pinned in: ReadExtent without the
// copy. A page is borrowed as in WalkRange. An error from fn stops the
// walk and is returned as is; every exit leaves nothing pinned.
//
// stamp is the stamp of the page's frame. It reads 0 until a reader
// stores a tag of what it has checked of these bytes, and the pool
// zeroes it whenever the bytes are loaded or may change, so a reader
// that finds its own tag there may skip checks those bytes have passed.
func (s *LOBStore) WalkExtent(ref LOBRef, n int, fn func(page []byte, stamp *atomic.Uint64) error) error {
	return s.walk(ref.First, 0, n, fn)
}

// readInto copies the extent's bytes [off, off+n) into buf[:0]. It grows
// buf only once the walk has checked the range against the volume, so a
// corrupt length cannot ask for more memory than the volume holds.
func (s *LOBStore) readInto(first PageID, off, n int, buf []byte) ([]byte, error) {
	out := buf[:0]
	err := s.walk(first, off, n, func(page []byte, _ *atomic.Uint64) error {
		out = append(slices.Grow(out, n-len(out)), page...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

var errInvalidRef = errors.New("storage: read of invalid blob ref")

// walkFunc takes one page of a blob walk (see walk).
type walkFunc func(page []byte, stamp *atomic.Uint64) error

// walkRun is how many pages a blob walk pins under one pool lock.
const walkRun = 8

// walk hands fn the bytes [off, off+n) of the extent starting at page
// first, page by page, as slices of the frames the pages are pinned in,
// with each frame's stamp. It refuses a range that runs past the
// volume's end. Pages are pinned walkRun at a time, each run under one
// pool lock; when the pool cannot hold a run, the rest goes one page at
// a time, as a copying read of one page would.
func (s *LOBStore) walk(first PageID, off, n int, fn walkFunc) error {
	if !first.Valid() {
		return errInvalidRef
	}
	vol := s.bp.disk.NumPages()
	if uint64(first) >= vol || off < 0 || n < 0 || uint64(off)+uint64(n) > (vol-uint64(first))*PageSize {
		return fmt.Errorf("storage: blob bytes [%d, +%d) at %v run past the %d-page volume", off, n, first, vol)
	}
	if n == 0 {
		return nil // no page covers an empty range
	}
	for p, end, step := off/PageSize, off+n, walkRun; p*PageSize < end; {
		k := min(step, (end+PageSize-1)/PageSize-p)
		if err := s.run(first+PageID(p), k, p, off, end, fn); errors.Is(err, ErrBufferPoolFull) && step > 1 {
			step = 1
		} else if err != nil {
			return err
		} else {
			p += k
		}
	}
	return nil
}

// run pins the k pages from id, the extent's page p onward, under one
// pool lock, hands on their bytes inside [off, end), and unpins them
// under one more.
func (s *LOBStore) run(id PageID, k, p, off, end int, fn walkFunc) error {
	var ids [walkRun]PageID
	var frames [walkRun]*frame
	for j := range k {
		ids[j] = id + PageID(j)
	}
	if err := s.bp.pinRun(ids[:k], frames[:k]); err != nil {
		return err
	}
	defer s.bp.unpinRun(ids[:k])
	for j, f := range frames[:k] {
		start := (p + j) * PageSize
		if err := fn(f.data[max(off-start, 0):min(end-start, PageSize)], &f.checked); err != nil {
			return err
		}
	}
	return nil
}
