// Package delta is the in-memory half of the HTAP ingest path: a
// per-chunk overlay store that writers append to without touching the
// chunk files, logged to a dedicated write-ahead file for crash
// recovery. Queries attach an immutable snapshot of the overlay to
// their array clone and merge it as chunks stream; a background
// compactor periodically folds cold deltas into the chunk-offset-
// compressed chunks and drains what it folded.
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
	"sort"
	"sync"

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

// Store is the delta overlay store. All methods are safe for concurrent
// use; Apply blocks while the store is over its byte budget (waiting for
// a compaction to drain it) unless the context ends first.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond

	// chunks holds the live overlay: chunk number -> offset-sorted,
	// duplicate-free cell states. Every slice is immutable once stored
	// (Apply builds merged replacements), so Snapshot can hand the
	// slices to query clones with a shallow map copy.
	chunks map[int][]chunk.OverlayCell

	// versions counts ingest batches per chunk. A chunk's version never
	// resets — compaction does not change what a reader of that chunk
	// observes, so drained chunks keep their version and cache entries
	// tagged with it stay valid across the fold.
	versions map[int]uint64

	// touched is every chunk ever ingested into, surviving drains and —
	// via the catalog — restarts. Relational engines skip tuples falling
	// in touched chunks and re-aggregate those chunks from the array
	// instead, which is what keeps the three engines bit-identical
	// before and after any number of compactions.
	touched map[int]struct{}

	// state is the published array base the overlay applies over.
	// Publish moves it; Snapshot and Versions read it in the same
	// acquisition as the overlay, so no reader pairs a base with the
	// deltas of another.
	state uint64

	cells  int64
	bytes  int64
	budget int64

	wal    *walFile
	closed bool
}

// Open creates a delta store. walPath names the dedicated delta WAL
// ("" = in-memory only, no durability); if the file exists its batches
// are replayed into the store. budgetBytes, when positive, is the
// backpressure threshold for Apply.
func Open(walPath string, budgetBytes int64) (*Store, error) {
	s := &Store{
		chunks:   make(map[int][]chunk.OverlayCell),
		versions: make(map[int]uint64),
		touched:  make(map[int]struct{}),
		budget:   budgetBytes,
	}
	s.cond = sync.NewCond(&s.mu)
	if walPath == "" {
		return s, nil
	}
	w, batches, err := openWAL(walPath)
	if err != nil {
		return nil, err
	}
	s.wal = w
	for _, b := range batches {
		s.applyLocked(b)
	}
	return s, nil
}

// SeedTouched marks chunks as ever-touched, used at open to restore the
// dirty-filter set the catalog persisted at the last compaction commit.
func (s *Store) SeedTouched(chunks []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cn := range chunks {
		s.touched[cn] = struct{}{}
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
	if s.wal != nil {
		if err := s.wal.append(cells); err != nil {
			return err
		}
	}
	s.applyLocked(cells)
	return nil
}

// applyLocked folds one batch into the overlay. Slices already stored
// are never mutated: each touched chunk gets a freshly merged slice.
func (s *Store) applyLocked(cells []Cell) {
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
		prev := s.chunks[cn]
		next := chunk.MergeOverlayCells(prev, dedup)
		s.chunks[cn] = next
		s.cells += int64(len(next) - len(prev))
		s.bytes += int64(len(next)-len(prev)) * cellCost
		s.versions[cn]++
		s.touched[cn] = struct{}{}
	}
}

// Publish makes state the array base every later snapshot pairs its
// overlay with. A compactor publishes its fold before it drains, so a
// snapshot is (old base, full overlay), (new, full) or (new, drained):
// all three read the same cells, because replaying absolute cell states
// is idempotent.
func (s *Store) Publish(state uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = state
}

// Snapshot returns the published base state, the overlay (a shallow map
// copy over immutable slices), the per-chunk version vector, and the
// sorted ever-touched chunk list, captured atomically. The state names
// the master a query clone opens and the overlay is attached to it; the
// versions tag its decoded-chunk cache view; the touched list drives the
// relational dirty filter.
func (s *Store) Snapshot() (uint64, map[int][]chunk.OverlayCell, map[int]uint64, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ov map[int][]chunk.OverlayCell
	if len(s.chunks) > 0 {
		ov = make(map[int][]chunk.OverlayCell, len(s.chunks))
		for cn, cells := range s.chunks {
			ov[cn] = cells
		}
	}
	versions, touched := s.versionsLocked()
	return s.state, ov, versions, touched
}

// Versions is Snapshot without the overlay (for cache-key computation,
// without copying the overlay itself).
func (s *Store) Versions() (uint64, map[int]uint64, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions, touched := s.versionsLocked()
	return s.state, versions, touched
}

func (s *Store) versionsLocked() (map[int]uint64, []int) {
	versions := make(map[int]uint64, len(s.versions))
	for cn, v := range s.versions {
		versions[cn] = v
	}
	touched := make([]int, 0, len(s.touched))
	for cn := range s.touched {
		touched = append(touched, cn)
	}
	sort.Ints(touched)
	return versions, touched
}

// Drain removes the overlay of every chunk whose version still matches
// snapVersions — i.e. exactly what the compactor folded. A chunk
// ingested into after the snapshot keeps its whole current slice:
// re-merging it over the folded base is idempotent, so nothing is
// lost and nothing is double-counted. The delta WAL is rewritten to
// hold only what remains, and blocked writers are woken.
func (s *Store) Drain(snapVersions map[int]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for cn, cells := range s.chunks {
		if s.versions[cn] != snapVersions[cn] {
			continue
		}
		s.cells -= int64(len(cells))
		s.bytes -= int64(len(cells)) * cellCost
		delete(s.chunks, cn)
	}
	var err error
	if s.wal != nil {
		err = s.wal.rewrite(s.chunks)
	}
	s.cond.Broadcast()
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Cells:         s.cells,
		Bytes:         s.bytes,
		DirtyChunks:   len(s.chunks),
		TouchedChunks: len(s.touched),
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
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}
