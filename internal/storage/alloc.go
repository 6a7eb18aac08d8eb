package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Extent is a run of N contiguous pages starting at First.
type Extent struct {
	First PageID
	N     int
}

// end returns the page just past the extent.
func (e Extent) end() PageID { return e.First + PageID(e.N) }

// An extent's life: allocated (AllocateExtent, NewPage), then reachable
// from some committed root; retired when a commit replaces what pointed
// at it (Retire, tagged with the newest snapshot that may still read it);
// free once no reader holds a snapshot at or before its tag (Reclaim),
// or at open when the mark pass finds nothing reaching it (Free); and
// allocated again. None of it is persisted: the free list is rebuilt by
// the mark pass at every open, so a crash leaks at most until then.

// allocator is the buffer pool's free-extent list and its pending list.
// The free list is ascending and coalesced: no two of its extents
// overlap or touch. Allocation is first fit; the file is extended only
// when no free extent fits.
type allocator struct {
	mu        sync.Mutex
	free      []Extent
	freePages int64
	pending   []retired
	pendPages int64
	reused    atomic.Uint64
}

// retired is an extent waiting for the snapshots that may read it.
type retired struct {
	tag uint64
	Extent
}

// take cuts n pages from the first free extent that holds them.
// Caller holds a.mu.
func (a *allocator) take(n int) (PageID, bool) {
	for i, e := range a.free {
		if e.N < n {
			continue
		}
		if e.N == n {
			a.free = slices.Delete(a.free, i, i+1)
		} else {
			a.free[i] = Extent{First: e.First + PageID(n), N: e.N - n}
		}
		a.freePages -= int64(n)
		a.reused.Add(uint64(n))
		return e.First, true
	}
	return InvalidPageID, false
}

// put adds e to the free list, merging it with the free extents it
// touches. An extent that overlaps one already free is refused: handing
// its pages out twice would corrupt both owners. Caller holds a.mu.
func (a *allocator) put(e Extent) error {
	i, _ := slices.BinarySearchFunc(a.free, e.First, func(f Extent, id PageID) int {
		return cmp.Compare(f.First, id)
	})
	if (i > 0 && a.free[i-1].end() > e.First) || (i < len(a.free) && a.free[i].First < e.end()) {
		return fmt.Errorf("storage: free of %d pages at %v overlaps a free extent", e.N, e.First)
	}
	a.freePages += int64(e.N)
	if i > 0 && a.free[i-1].end() == e.First {
		i--
		e = Extent{First: a.free[i].First, N: a.free[i].N + e.N}
		a.free = slices.Delete(a.free, i, i+1)
	}
	if i < len(a.free) && a.free[i].First == e.end() {
		e.N += a.free[i].N
		a.free = slices.Delete(a.free, i, i+1)
	}
	a.free = slices.Insert(a.free, i, e)
	return nil
}

// AllocateExtent reserves n contiguous pages without caching them: the
// first free extent that holds n pages, else a free extent at the end of
// the volume stretched to n pages, else n new pages. A reused page still
// holds whatever it held before; callers write every page before they
// read it (pinFresh hands out a zeroed frame). The fact file and the
// blob store build their extents with it.
func (bp *BufferPool) AllocateExtent(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("storage: allocate %d pages", n)
	}
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.take(n)
	if !ok {
		var err error
		if id, err = bp.extend(n); err != nil {
			return InvalidPageID, err
		}
	}
	bp.allocations.Add(uint64(n))
	return id, nil
}

// extend grows the volume for an n-page extent, starting it at a free
// extent that ends the volume, if there is one. Caller holds a.mu.
func (bp *BufferPool) extend(n int) (PageID, error) {
	a := &bp.alloc
	if k := len(a.free); k > 0 && uint64(a.free[k-1].end()) == bp.disk.NumPages() {
		tail := a.free[k-1]
		first, err := bp.disk.Allocate(n - tail.N)
		if err != nil {
			return InvalidPageID, err
		}
		if first != tail.end() {
			return InvalidPageID, fmt.Errorf("storage: volume grew to %v under the allocator (free tail ends at %v)", first, tail.end())
		}
		a.free = a.free[:k-1]
		a.freePages -= int64(tail.N)
		a.reused.Add(uint64(tail.N))
		return tail.First, nil
	}
	return bp.disk.Allocate(n)
}

// Free makes extents free at once: pages nothing can reach, which is
// what the mark pass finds at open. Their cached frames are dropped and
// a Discarder volume is told. An extent outside the volume, touching the
// superblock, or overlapping a free extent is refused and reported.
func (bp *BufferPool) Free(exts ...Extent) error {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	for _, e := range exts {
		if err := bp.freeExtent(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// freeExtent is Free for one extent. Caller holds a.mu.
func (bp *BufferPool) freeExtent(e Extent) error {
	if e.N <= 0 || e.First == HeaderPageID || !e.First.Valid() || uint64(e.end()) > bp.disk.NumPages() || e.end() < e.First {
		return fmt.Errorf("storage: free of %d pages at %v on a %d-page volume", e.N, e.First, bp.disk.NumPages())
	}
	if err := bp.alloc.put(e); err != nil {
		return err
	}
	bp.dropFrames(e)
	if d, ok := bp.disk.(Discarder); ok {
		d.Discard(e.First, e.N)
	}
	return nil
}

// Retire puts extents on the pending list under tag: the newest snapshot
// that may still read them. They stay allocated until a Reclaim finds no
// snapshot at or before tag held. Tag 0 means no snapshot reads them.
func (bp *BufferPool) Retire(tag uint64, exts ...Extent) {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range exts {
		a.pending = append(a.pending, retired{tag: tag, Extent: e})
		a.pendPages += int64(e.N)
	}
}

// Reclaim frees every pending extent whose tag is below oldest, the
// oldest snapshot any reader still holds (or the current one when none
// is held). It returns the first extent it had to refuse (see Free);
// the rest are freed regardless.
func (bp *BufferPool) Reclaim(oldest uint64) error {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	keep := a.pending[:0]
	for _, r := range a.pending {
		if r.tag >= oldest {
			keep = append(keep, r)
			continue
		}
		a.pendPages -= int64(r.N)
		if err := bp.freeExtent(r.Extent); err != nil && first == nil {
			first = err
		}
	}
	clear(a.pending[len(keep):])
	a.pending = keep
	return first
}

// SpaceStats describes the volume's pages: how many it has, how many of
// them are free or pending, and how many allocations took reused pages.
type SpaceStats struct {
	Pages        uint64 `json:"pages"`
	FreePages    int64  `json:"free_pages"`
	PendingPages int64  `json:"pending_pages"`
	ReusedPages  uint64 `json:"reused_pages"`
}

// Space snapshots the volume's page accounting.
func (bp *BufferPool) Space() SpaceStats {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	return SpaceStats{
		Pages:        bp.disk.NumPages(),
		FreePages:    a.freePages,
		PendingPages: a.pendPages,
		ReusedPages:  a.reused.Load(),
	}
}

// Marks is the page set of a mark pass: every page some root reaches.
// Marking a page twice, or one at or past the volume's end, is an error,
// which is what stops a walk of a corrupt structure that loops or points
// off the volume.
type Marks struct {
	pages uint64
	bits  []uint64
}

// NewMarks returns an empty mark set over a volume of pages pages, with
// the superblock marked.
func NewMarks(pages uint64) *Marks {
	m := &Marks{pages: pages, bits: make([]uint64, (pages+63)/64)}
	if pages > 0 {
		m.bits[0] = 1
	}
	return m
}

// Mark marks the n pages from first.
func (m *Marks) Mark(first PageID, n int) error {
	if n <= 0 || !first.Valid() || uint64(first) >= m.pages || uint64(n) > m.pages-uint64(first) {
		return fmt.Errorf("storage: mark of %d pages at %v on a %d-page volume", n, first, m.pages)
	}
	for p := uint64(first); p < uint64(first)+uint64(n); p++ {
		if m.bits[p/64]&(1<<(p%64)) != 0 {
			return fmt.Errorf("storage: %v reached twice", PageID(p))
		}
		m.bits[p/64] |= 1 << (p % 64)
	}
	return nil
}

// Marked reports whether page id is marked.
func (m *Marks) Marked(id PageID) bool {
	return uint64(id) < m.pages && m.bits[id/64]&(1<<(id%64)) != 0
}

// Unmarked returns the runs of pages nothing marked, ascending.
func (m *Marks) Unmarked() []Extent {
	var out []Extent
	for p := uint64(0); p < m.pages; {
		if m.Marked(PageID(p)) {
			p++
			continue
		}
		start := p
		for p < m.pages && !m.Marked(PageID(p)) {
			p++
		}
		out = append(out, Extent{First: PageID(start), N: int(p - start)})
	}
	return out
}

// BlobExtent returns the extent of the self-describing blob at ref, its
// length read from the blob's first page and checked against the
// volume's end.
func (s *LOBStore) BlobExtent(ref LOBRef) (Extent, error) {
	n, err := s.Length(ref)
	if err != nil {
		return Extent{}, err
	}
	vol := s.bp.disk.NumPages()
	if n < 0 || uint64(n)+lobLenSize > (vol-uint64(ref.First))*PageSize {
		return Extent{}, fmt.Errorf("storage: blob at %v of %d bytes runs past the %d-page volume", ref.First, n, vol)
	}
	return Extent{First: ref.First, N: BlobPages(n)}, nil
}
