// Package delta is the in-memory half of the HTAP ingest path: a
// per-chunk overlay store that writers append to without touching the
// chunk files, logged to a dedicated write-ahead file for crash
// recovery. Every write publishes one immutable View of the store —
// base state, overlay, versions, touched chunks — that queries read
// without a lock or a copy, merging its overlay as chunks stream through
// their readers; a background compactor periodically folds cold deltas
// into the chunk-offset-compressed chunks and drains what it folded.
//
// Deltas are absolute cell states (set this cell to this value, or
// delete it), not arithmetic increments. That makes every replay and
// re-merge idempotent: folding a snapshot into the base and then
// merging the same snapshot over the folded base yields the same
// cells, which is what makes crash recovery (replay the whole delta
// WAL over whatever the last committed base is) and the post-
// compaction read path (chunks stay in the relational dirty filter
// forever) correct without any coordination.
package delta

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
)

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("delta: store closed")

// Cell is one ingested cell state, addressed by chunk number and
// in-chunk offset.
type Cell struct {
	Chunk  int
	Offset uint32
	Value  int64
	Delete bool
}

// cellCost is the accounting estimate per overlay cell: the OverlayCell
// itself plus map/slice overhead. The budget is a throttle, not an
// allocator, so a round figure is fine.
const cellCost = 32

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Cells and Bytes describe the deltas currently awaiting compaction.
	Cells int64
	Bytes int64
	// DirtyChunks counts chunks with uncompacted deltas right now;
	// TouchedChunks counts chunks ever touched by ingest (the set the
	// relational dirty filter consults — it never shrinks).
	DirtyChunks   int
	TouchedChunks int
	// BudgetBytes is the backpressure threshold (0 = unlimited).
	BudgetBytes int64
}

// View is one published instant of the store: the array base state,
// the overlay over it, the per-chunk versions and the ever-touched
// chunks, all of the same instant, so no reader pairs a base with the
// deltas of another. A View is immutable — writers publish a new one —
// so readers share it without a lock or a copy.
type View struct {
	// State is the published array base the overlay applies over.
	// Publish moves it.
	State uint64

	// Seq numbers the publication of State: a new one for every Publish
	// that moves the state, never repeated, even when a later state's
	// master lands on the pages of an earlier, freed one. What is cached
	// by state is cached by Seq.
	Seq uint64

	// Overlay maps chunk number to offset-sorted, duplicate-free cell
	// states awaiting compaction.
	Overlay map[int][]chunk.OverlayCell

	// Versions counts ingest batches per chunk. A chunk's version never
	// resets — compaction does not change what a reader of that chunk
	// observes, so drained chunks keep their version and cache entries
	// tagged with it stay valid across the fold.
	Versions map[int]uint64

	// Touched lists, ascending, every chunk ever ingested into,
	// surviving drains and — via the catalog — restarts. Relational
	// engines skip tuples falling in touched chunks and re-aggregate
	// those chunks from the array instead, which is what keeps the three
	// engines bit-identical before and after any number of compactions.
	Touched []int

	base *base // shared by every view of State
}

// base is one published state: every view of it shares one count of
// the readers that hold it. Pages a commit retired from this state or an
// older one are freed only once no reader holds either.
type base struct {
	seq     uint64
	holds   atomic.Int64
	retired atomic.Bool // a later Publish replaced the state
	s       *Store
}

// Acquire returns the published view and holds its state until Release:
// the pages the state reaches are not freed while it is held. It is
// hazard-style and allocates nothing: count the hold, re-load the
// published view, and retry if the state moved in between — a compactor
// that publishes, commits and retires after the re-load sees the hold.
func (s *Store) Acquire() *View {
	for {
		v := s.view.Load()
		if h := AcquireHook.Load(); h != nil {
			(*h)()
		}
		v.base.holds.Add(1)
		if s.view.Load().base == v.base {
			return v
		}
		v.base.release()
	}
}

// AcquireHook, when a test sets it, runs in Acquire between the load of
// the published view and the hold on it: the one point where a writer
// that publishes, commits and retires must be seen by the re-load.
var AcquireHook atomic.Pointer[func()]

// Release ends the hold Acquire took on v's state. A view Acquire did
// not return (nil, or one made by hand) holds nothing.
func (v *View) Release() {
	if v != nil && v.base != nil {
		v.base.release()
	}
}

func (b *base) release() {
	if b.holds.Add(-1) == 0 && b.retired.Load() {
		b.s.Reclaim()
	}
}

// SetReclaimer installs what frees retired pages: it is called with the
// oldest state sequence any reader still holds (the current one when
// none is), after a commit retires pages and whenever the last holder
// of a replaced state lets go. Call once, before readers run.
func (s *Store) SetReclaimer(f func(oldest uint64)) {
	s.mu.Lock()
	s.reclaimer = f
	s.mu.Unlock()
}

// Reclaim hands the installed reclaimer the oldest held state sequence.
func (s *Store) Reclaim() {
	s.mu.Lock()
	keep := s.replaced[:0]
	for _, b := range s.replaced {
		if b.holds.Load() > 0 {
			keep = append(keep, b)
		}
	}
	clear(s.replaced[len(keep):])
	s.replaced = keep
	oldest := s.view.Load().Seq
	if len(keep) > 0 {
		oldest = keep[0].seq // replaced in publish order
	}
	f := s.reclaimer
	s.mu.Unlock()
	if f != nil {
		f(oldest)
	}
}

// Store is the delta overlay store. All methods are safe for concurrent
// use; Apply blocks while the store is over its byte budget (waiting for
// a compaction to drain it) unless the context ends first.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond

	// view is the published instant. Writers build its successor under
	// mu, copy-on-write (no map or slice a View holds is ever mutated),
	// and store it; readers load it.
	view atomic.Pointer[View]

	cells  int64
	bytes  int64
	budget int64

	log    *Records
	closed bool

	// replaced lists, oldest first, the bases Publish replaced that a
	// reader may still hold; Reclaim drops the ones none does.
	replaced  []*base
	reclaimer func(oldest uint64)
}

// Open creates a delta store. walPath names the dedicated delta WAL
// ("" = in-memory only, no durability); if the file exists its batches
// are replayed into the store. budgetBytes, when positive, is the
// backpressure threshold for Apply.
func Open(walPath string, budgetBytes int64) (*Store, error) {
	s := &Store{budget: budgetBytes}
	s.cond = sync.NewCond(&s.mu)
	v := &View{Seq: 1, Overlay: make(map[int][]chunk.OverlayCell), Versions: make(map[int]uint64)}
	v.base = &base{seq: v.Seq, s: s}
	if walPath != "" {
		log, batches, err := openLog(walPath)
		if err != nil {
			return nil, err
		}
		s.log = log
		for _, b := range batches {
			s.applyLocked(v, b)
		}
	}
	s.view.Store(v)
	return s, nil
}

// View returns the published instant. It takes no lock and copies
// nothing; the View must be treated as read-only.
func (s *Store) View() *View { return s.view.Load() }

// SeedTouched marks chunks as ever-touched, used at open to restore the
// dirty-filter set the catalog persisted at the last compaction commit.
func (s *Store) SeedTouched(chunks []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := *s.view.Load()
	for _, cn := range chunks {
		v.touch(cn)
	}
	s.view.Store(&v)
}

// touch adds cn to the ascending touched list, copying the list rather
// than writing into one an earlier view holds.
func (v *View) touch(cn int) {
	if i, found := slices.BinarySearch(v.Touched, cn); !found {
		v.Touched = slices.Insert(slices.Clip(v.Touched), i, cn)
	}
}

// Apply ingests one batch of cell states, logging it to the delta WAL
// (fsynced) before it becomes visible. Within a batch, a later entry
// for the same cell wins. Apply blocks while the store is over its byte
// budget until a Drain frees room or ctx ends.
func (s *Store) Apply(ctx context.Context, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.budget > 0 && s.bytes >= s.budget && !s.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Wake this waiter if the context ends while it sleeps; Drain
		// and Close broadcast on their own.
		stop := context.AfterFunc(ctx, s.cond.Broadcast)
		s.cond.Wait()
		stop()
	}
	if s.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.log != nil {
		if err := s.log.Append(encodeBatch(cells)); err != nil {
			return err
		}
		if err := s.log.Sync(); err != nil {
			return err
		}
	}
	v := *s.view.Load()
	v.Overlay, v.Versions = maps.Clone(v.Overlay), maps.Clone(v.Versions)
	s.applyLocked(&v, cells)
	s.view.Store(&v)
	return nil
}

// applyLocked folds one batch into v, a view not yet published. Overlay
// slices already stored are never mutated: each touched chunk gets a
// freshly merged slice.
func (s *Store) applyLocked(v *View, cells []Cell) {
	byChunk := make(map[int][]chunk.OverlayCell)
	for _, c := range cells {
		byChunk[c.Chunk] = append(byChunk[c.Chunk], chunk.OverlayCell{
			Offset: c.Offset, Value: c.Value, Delete: c.Delete,
		})
	}
	for cn, batch := range byChunk {
		// Stable sort keeps batch order among equal offsets, then keep
		// the last state per offset (last write wins).
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].Offset < batch[j].Offset })
		dedup := batch[:0]
		for i, c := range batch {
			if i+1 < len(batch) && batch[i+1].Offset == c.Offset {
				continue
			}
			dedup = append(dedup, c)
		}
		prev := v.Overlay[cn]
		next := chunk.MergeOverlayCells(prev, dedup)
		v.Overlay[cn] = next
		s.cells += int64(len(next) - len(prev))
		s.bytes += int64(len(next)-len(prev)) * cellCost
		v.Versions[cn]++
		v.touch(cn)
	}
}

// Publish makes state the array base every later view pairs its
// overlay with. A compactor publishes its fold before it drains, so a
// view is (old base, full overlay), (new, full) or (new, drained): all
// three read the same cells, because replaying absolute cell states is
// idempotent.
//
// A state that moves starts a new base under the next sequence; the
// replaced one is retired, and once its last holder lets go, Reclaim
// runs.
func (s *Store) Publish(state uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := *s.view.Load() // only the state changes: the maps are shared
	if v.State == state {
		return
	}
	old := v.base
	v.State, v.Seq = state, v.Seq+1
	v.base = &base{seq: v.Seq, s: s}
	old.retired.Store(true)
	s.replaced = append(s.replaced, old)
	s.view.Store(&v)
}

// Drain removes the overlay of every chunk whose version still matches
// folded — the Versions of the view the compactor folded. A chunk
// ingested into after that view keeps its whole current slice:
// re-merging it over the folded base is idempotent, so nothing is
// lost and nothing is double-counted. The delta WAL is rewritten to
// hold only what remains, and blocked writers are woken.
func (s *Store) Drain(folded map[int]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := *s.view.Load()
	v.Overlay = maps.Clone(v.Overlay)
	for cn, cells := range v.Overlay {
		if v.Versions[cn] != folded[cn] {
			continue
		}
		s.cells -= int64(len(cells))
		s.bytes -= int64(len(cells)) * cellCost
		delete(v.Overlay, cn)
	}
	s.view.Store(&v)
	var err error
	if s.log != nil {
		err = rewriteLog(s.log, v.Overlay)
	}
	s.cond.Broadcast()
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	return Stats{
		Cells:         s.cells,
		Bytes:         s.bytes,
		DirtyChunks:   len(v.Overlay),
		TouchedChunks: len(v.Touched),
		BudgetBytes:   s.budget,
	}
}

// Close closes the delta WAL and fails pending and future Applies.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}
