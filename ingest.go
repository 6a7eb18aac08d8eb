package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/delta"
	"repro/internal/storage"
)

// DeltaStats is a point-in-time snapshot of the ingest delta store.
type DeltaStats = delta.Stats

// IngestCell is one cell state for InsertCells, addressed by dimension
// keys: set the cell's measure to Value, or delete it. States are
// absolute (not increments), so replaying a batch is idempotent.
type IngestCell struct {
	Keys   []int64
	Value  int64
	Delete bool
}

// InsertCells ingests a batch of cell states through the HTAP delta
// path: the batch is logged to the delta WAL (fsynced) and becomes
// visible to queries immediately, without touching the chunk files.
// A later background (or explicit) Compact folds it into the array.
// Within a batch, a later entry for the same cell wins.
//
// InsertCells is safe to call concurrently with queries, with other
// InsertCells, and with the compactor. It blocks when the delta store
// is over its byte budget (Options.DeltaBudgetBytes) until a
// compaction drains it.
func (db *DB) InsertCells(cells []IngestCell) error {
	return db.InsertCellsContext(context.Background(), cells)
}

// InsertCellsContext is InsertCells with cancellation — the context
// bounds both key resolution and the backpressure wait.
func (db *DB) InsertCellsContext(ctx context.Context, cells []IngestCell) error {
	if len(cells) == 0 {
		return nil
	}
	if !db.ex.HasArray() {
		return fmt.Errorf("repro: ingest requires a built array (BuildArray)")
	}
	if db.rebuilt.Load() {
		return fmt.Errorf("repro: commit the rebuilt array before ingesting into it")
	}
	out, err := db.locate(cells)
	if err != nil {
		return err
	}
	return db.ds.Apply(ctx, out)
}

// locate resolves cells' keys to (chunk, offset) through the dimension
// B-trees of the published master. Its hold on the master's state ends
// before InsertCells may wait on backpressure for a compaction.
func (db *DB) locate(cells []IngestCell) ([]delta.Cell, error) {
	// Only the master's dimension maps and geometry are read here; no
	// chunk is.
	arr, _, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		return nil, err
	}
	defer hold.Release()
	dims := arr.Dims()
	g := arr.Geometry()
	coords := make([]int, len(dims))
	out := make([]delta.Cell, len(cells))
	for i, c := range cells {
		if len(c.Keys) != len(dims) {
			return nil, fmt.Errorf("repro: ingest: cell %d has %d keys for %d dimensions", i, len(c.Keys), len(dims))
		}
		for d, k := range c.Keys {
			idx, ok, err := dims[d].IndexOf(k)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("repro: ingest: cell %d references unknown %s key %d", i, dims[d].Name, k)
			}
			coords[d] = idx
		}
		cn, off := g.Locate(coords)
		out[i] = delta.Cell{Chunk: cn, Offset: uint32(off), Value: c.Value, Delete: c.Delete}
	}
	return out, nil
}

// DeltaStats snapshots the ingest delta store's counters.
func (db *DB) DeltaStats() DeltaStats { return db.ds.Stats() }

// CompactionsTotal reports how many compactions have completed since
// the database opened (the compactions_total counter).
func (db *DB) CompactionsTotal() int64 { return db.compactions.Value() }

// Compact folds the current delta overlay into the chunk-offset-
// compressed chunk store and drains what it folded: take the published
// view's base state and overlay, apply the overlay copy-on-write to that
// state's master (only the touched chunks are re-encoded), publish the
// new array version, and commit durably — then remove the folded deltas
// from the store and its WAL. Queries run concurrently throughout: a
// view pairs (old base, full overlay), (new, full) or (new, drained),
// and in-flight readers keep reading the pages of the version their
// view named.
//
// The step order is what makes a crash at any point recoverable: the
// delta WAL is only rewritten after the fold is durably committed, and
// replaying absolute cell states over an already-folded base is a
// no-op. Compaction changes no observable content, so it starts no new
// catalog generation; result- and chunk-cache entries survive it.
func (db *DB) Compact() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	view := db.ds.View()
	if view.State == 0 || len(view.Overlay) == 0 {
		return nil
	}
	start := time.Now()
	arr, err := array.Open(db.bp, storage.LOBRef{First: storage.PageID(view.State)})
	if err != nil {
		return err
	}
	// On an adaptive store the rewrite re-picks each touched chunk's
	// codec: a chunk an ingest stream filled in migrates from chunk-
	// offset pairs to difference sequences, and back after deletes.
	next, err := arr.ApplyChunkChanges(view.Overlay)
	if err != nil {
		return err
	}
	if err := db.compactHook("applied"); err != nil {
		return err
	}
	db.cat.ArrayState = uint64(next.State().First)
	db.ds.Publish(db.cat.ArrayState)
	// A chunk first touched after the view is not drained below, so it
	// stays in the delta WAL, whose replay touches it again.
	db.cat.DeltaChunks = view.Touched
	// Republish the codec mix (chunks may have re-picked codecs above).
	// cat.Stats itself stays untouched: concurrent queries cost plans
	// against it without locks, and compaction changes no answer.
	if err := db.refreshCodecSnapshot(); err != nil {
		return err
	}
	if err := db.compactHook("swapped"); err != nil {
		return err
	}
	if err := db.commitLocked(); err != nil {
		return err
	}
	// The commit is durable, and nothing it reaches is in what next
	// replaced; a reader may still hold the view's state, or an older one.
	db.retire(view.Seq, arr.Superseded(next)...)
	if err := db.compactHook("committed"); err != nil {
		return err
	}
	if err := db.ds.Drain(view.Versions); err != nil {
		return err
	}
	db.compactions.Inc()
	db.compactSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// compactHook runs the test fail-point, if any.
func (db *DB) compactHook(stage string) error {
	if db.compactTestHook != nil {
		return db.compactTestHook(stage)
	}
	return nil
}

// StartCompactor launches the background compactor: every interval it
// folds whatever deltas have accumulated. Idempotent while running;
// Close (or StopCompactor) stops it.
func (db *DB) StartCompactor(interval time.Duration) {
	if interval <= 0 || db.compactStop != nil {
		return
	}
	stop := make(chan struct{})
	db.compactStop = stop
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// An error leaves the deltas in place (still durable in
				// their own log); the next tick retries.
				db.Compact()
			}
		}
	}()
}

// StopCompactor stops the background compactor and waits for an
// in-flight compaction to finish. No-op when none is running.
func (db *DB) StopCompactor() {
	if db.compactStop == nil {
		return
	}
	close(db.compactStop)
	db.compactWG.Wait()
	db.compactStop = nil
}
