package core

import (
	"context"
	"fmt"

	"repro/internal/array"
	"repro/internal/bitmap"
	"repro/internal/catalog"
	"repro/internal/factfile"
)

// Restriction limits a consolidation to one shard's slice of the data:
// shard Shard of Shards over the same partitioning axes the parallel
// workers already use — contiguous chunk ranges for the array engine,
// extent-aligned tuple ranges for the relational engines. The zero
// value (and any Shards <= 1) means unrestricted. Because the shard
// ranges are exactly the worker split formula, the union of all shards'
// results folds (Result.Merge) into the bit-identical single-node
// answer, and the scanned-unit counters conserve across shards.
type Restriction struct {
	Shard  int // 0-based shard index
	Shards int // total shards; <= 1 disables the restriction
}

// Active reports whether the restriction limits anything.
func (r Restriction) Active() bool { return r.Shards > 1 }

// Validate rejects out-of-range shard indices.
func (r Restriction) Validate() error {
	if r.Shards > 1 && (r.Shard < 0 || r.Shard >= r.Shards) {
		return fmt.Errorf("core: shard %d out of range 0..%d", r.Shard, r.Shards-1)
	}
	return nil
}

// String renders "shard/shards" for EXPLAIN and fingerprints.
func (r Restriction) String() string { return fmt.Sprintf("%d/%d", r.Shard, r.Shards) }

// ChunkRange resolves the restriction to a half-open chunk range — the
// same numChunks*i/N split ArrayConsolidateParallel gives worker i, so
// shards partition the chunk directory exactly.
func (r Restriction) ChunkRange(numChunks int) (lo, hi int) {
	if !r.Active() {
		return 0, numChunks
	}
	return numChunks * r.Shard / r.Shards, numChunks * (r.Shard + 1) / r.Shards
}

// ExtentRange resolves the restriction to a half-open extent range of
// the fact file (the starJoinParallel split).
func (r Restriction) ExtentRange(exts int) (lo, hi int) {
	if !r.Active() {
		return 0, exts
	}
	return exts * r.Shard / r.Shards, exts * (r.Shard + 1) / r.Shards
}

// TupleRange resolves the restriction to the extent-aligned half-open
// tuple range of ff, clamped to the tuple count. Extent alignment means
// shards never split a page, exactly like the parallel workers.
func (r Restriction) TupleRange(ff *factfile.File) (lo, hi uint64) {
	n := ff.NumTuples()
	if !r.Active() {
		return 0, n
	}
	elo, ehi := r.ExtentRange(ff.NumExtents())
	perExt := uint64(ff.ExtentTuples())
	lo, hi = uint64(elo)*perExt, uint64(ehi)*perExt
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// rangeBits restricts a bitmap to the half-open tuple range [lo, hi):
// positions outside the window are never reported, so FetchBits fetches
// only the shard's tuples. Implements factfile.BitIterator.
type rangeBits struct {
	bits   *bitmap.Bitmap
	lo, hi uint64
}

func (r rangeBits) NextSet(from uint64) (uint64, bool) {
	if from < r.lo {
		from = r.lo
	}
	pos, ok := r.bits.NextSet(from)
	if !ok || pos >= r.hi {
		return 0, false
	}
	return pos, true
}

// ArrayConsolidateRestricted is the unified entry point of the §4.1
// array algorithm: the consolidation runs over the restriction's chunk
// range, sequentially for workers <= 1 and fanned out otherwise.
func ArrayConsolidateRestricted(ctx context.Context, a *array.Array, spec GroupSpec, workers int, r Restriction) (*Result, Metrics, error) {
	if err := r.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	lo, hi := r.ChunkRange(a.Geometry().NumChunks())
	return arrayConsolidate(ctx, a, spec, max(workers, 1), lo, hi)
}

// ArraySelectConsolidateRestricted is the unified entry point of the
// §4.2 selection algorithm over the restriction's chunk range.
func ArraySelectConsolidateRestricted(ctx context.Context, a *array.Array, sels []Selection, spec GroupSpec, workers int, r Restriction) (*Result, Metrics, error) {
	if err := r.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	lo, hi := r.ChunkRange(a.Geometry().NumChunks())
	return arraySelectConsolidate(ctx, a, sels, spec, max(workers, 1), lo, hi)
}

// StarJoinConsolidateRestricted is the unified entry point of the §4.3
// star join (sels may be nil) over the restriction's extent-aligned
// tuple range.
func StarJoinConsolidateRestricted(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, sels []Selection, spec GroupSpec, workers int, r Restriction) (*Result, Metrics, error) {
	return StarJoinConsolidateRestrictedOverlay(ctx, ff, dims, sels, spec, workers, r, nil)
}

// BitmapSelectConsolidateRestricted is the unified entry point of the
// §4.5 bitmap algorithm: the full-length result bitmap is still built
// (bitmap op counts are shard-count-invariant per shard), but the fact
// fetch is limited to the restriction's tuple window.
func BitmapSelectConsolidateRestricted(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable,
	src BitmapIndexSource, sels []Selection, spec GroupSpec, workers int, r Restriction) (*Result, Metrics, error) {
	return BitmapSelectConsolidateRestrictedOverlay(ctx, ff, dims, src, sels, spec, workers, r, nil)
}
