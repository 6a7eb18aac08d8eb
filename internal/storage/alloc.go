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

// allocator is the buffer pool's free-extent list, its pending list, and
// the extents allocated since the last commit (fresh), the only pages a
// write pin may take. The free and fresh lists are ascending and
// coalesced: no two of a list's extents overlap or touch. Allocation is
// first fit; the file is extended only when no free extent fits.
type allocator struct {
	mu        sync.Mutex
	free      []Extent
	freePages int64
	fresh     []Extent
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

// find returns the index of the first extent of the ascending list l
// that ends after id.
func find(l []Extent, id PageID) int {
	i, _ := slices.BinarySearchFunc(l, id, func(e Extent, id PageID) int {
		return cmp.Compare(e.end(), id+1)
	})
	return i
}

// holds reports whether the ascending list l holds page id.
func holds(l []Extent, id PageID) bool {
	i := find(l, id)
	return i < len(l) && l[i].First <= id
}

// insert adds e to the ascending, coalesced list l, merging it with the
// extents it touches. An extent that overlaps one already in l is
// refused: handing its pages out twice would corrupt both owners.
func insert(l []Extent, e Extent) ([]Extent, error) {
	i := find(l, e.First)
	if i < len(l) && l[i].First < e.end() {
		return l, fmt.Errorf("storage: %d pages at %v overlap an extent already listed", e.N, e.First)
	}
	if i > 0 && l[i-1].end() == e.First {
		i--
		e = Extent{First: l[i].First, N: l[i].N + e.N}
		l = slices.Delete(l, i, i+1)
	}
	if i < len(l) && l[i].First == e.end() {
		e.N += l[i].N
		l = slices.Delete(l, i, i+1)
	}
	return slices.Insert(l, i, e), nil
}

// remove takes e's pages out of the ascending list l.
func remove(l []Extent, e Extent) []Extent {
	for i := find(l, e.First); i < len(l) && l[i].First < e.end(); {
		x := l[i]
		var keep []Extent
		if x.First < e.First {
			keep = append(keep, Extent{First: x.First, N: int(e.First - x.First)})
		}
		if x.end() > e.end() {
			keep = append(keep, Extent{First: e.end(), N: int(x.end() - e.end())})
		}
		l = slices.Replace(l, i, i+1, keep...)
		i += len(keep)
	}
	return l
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
	fresh, err := insert(a.fresh, Extent{First: id, N: n})
	if err != nil {
		return InvalidPageID, err
	}
	a.fresh = fresh
	bp.allocations.Add(uint64(n))
	return id, nil
}

// Writable reports whether a write pin may take page id: whether it was
// allocated since the last commit, so that no committed root reaches it.
func (bp *BufferPool) Writable(id PageID) bool {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	return holds(a.fresh, id)
}

// committed starts the next commit interval: what was allocated before
// it is reachable from a durable root now, or from nothing.
func (bp *BufferPool) committed() {
	a := &bp.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fresh = a.fresh[:0]
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
// commit slots, or overlapping a free extent is refused and reported.
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
	if e.N <= 0 || e.First < SlotPages || !e.First.Valid() || uint64(e.end()) > bp.disk.NumPages() || e.end() < e.First {
		return fmt.Errorf("storage: free of %d pages at %v on a %d-page volume", e.N, e.First, bp.disk.NumPages())
	}
	free, err := insert(bp.alloc.free, e)
	if err != nil {
		return err
	}
	bp.alloc.free = free
	bp.alloc.freePages += int64(e.N)
	bp.alloc.fresh = remove(bp.alloc.fresh, e)
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
// the commit slots marked.
func NewMarks(pages uint64) *Marks {
	m := &Marks{pages: pages, bits: make([]uint64, (pages+63)/64)}
	for p := uint64(0); p < min(pages, SlotPages); p++ {
		m.bits[0] |= 1 << p
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
