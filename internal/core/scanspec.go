package core

import "fmt"

// ScanSpec is everything one consolidation run varies over. The
// engines' run functions — ArrayConsolidate, StarJoinConsolidate,
// BitmapSelectConsolidate — each take their physical inputs and one
// ScanSpec; what used to be a family of entry points per engine is a
// field here, and a field's zero value is the plain case: no selection,
// sequential, the whole data set, no pending deltas.
type ScanSpec struct {
	// Selections are the query's predicates; none selects every cell.
	Selections []Selection
	// Group holds one grouping choice per dimension.
	Group GroupSpec
	// Workers is the intra-query parallel degree. Anything <= 1 runs
	// sequentially on the caller's goroutine; a larger degree is clamped
	// to the engine's work units (chunks, candidate chunks, extents).
	// Resolving "use every core" to a number is the caller's business.
	Workers int
	// Restriction limits the run to one shard's slice of the data.
	Restriction Restriction
	// Overlay makes the relational engines agree with an array that has
	// pending deltas; nil means none were ever ingested. The array
	// engine reads its overlay through the array it is handed and
	// ignores this field.
	Overlay *OverlayFold
	// Hot, ascending, cuts an array run at the chunks ingest has touched:
	// the run aggregates every chunk of its range but these or, with
	// OnlyHot, exactly these (sequentially, through ReadChunk). The two
	// sides tile the range, so their cubes Merge into the uncut run's, bit
	// for bit, as worker partials do.
	Hot     []int
	OnlyHot bool
}

// validate is the one check a run makes of its spec before it touches
// data: the restriction names a real shard and every selection names a
// real attribute level. dim reports a dimension's name and how many
// levels it has. (The group spec is checked where it is resolved into
// tables, which the oracles share.)
func (s *ScanSpec) validate(nDims int, dim func(i int) (name string, levels int)) error {
	if err := s.Restriction.Validate(); err != nil {
		return err
	}
	for _, sel := range s.Selections {
		if sel.Dim < 0 || sel.Dim >= nDims {
			return fmt.Errorf("core: selection on dimension %d of %d", sel.Dim, nDims)
		}
		if name, levels := dim(sel.Dim); sel.Level < 0 || sel.Level >= levels {
			return fmt.Errorf("core: dimension %s has no attribute level %d", name, sel.Level)
		}
	}
	return nil
}

// splitRange returns part i of n of the half-open range [lo, hi). It is
// the only partitioning arithmetic in the package: shards cut the chunk
// directory and the fact file's extents with it, and workers cut a
// shard's slice with it again, so a sharded parallel run nests exactly
// and the parts always tile the whole.
func splitRange(lo, hi, i, n int) (int, int) {
	span := hi - lo
	return lo + span*i/n, lo + span*(i+1)/n
}

// Restriction limits a consolidation to one shard's slice of the data:
// shard Shard of Shards over the same partitioning axes the parallel
// workers use — contiguous chunk ranges for the array engine,
// extent-aligned tuple ranges for the relational engines. The zero
// value (and any Shards <= 1) means unrestricted. Because shards and
// workers share splitRange, the union of all shards' results folds
// (Result.Merge) into the bit-identical single-node answer, and the
// scanned-unit counters conserve across shards.
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

// ChunkRange resolves the restriction to a half-open range of the
// array's chunk directory.
func (r Restriction) ChunkRange(numChunks int) (lo, hi int) { return r.slice(numChunks) }

// ExtentRange resolves the restriction to a half-open range of the fact
// file's extents. Extent alignment means shards, like workers, never
// split a page.
func (r Restriction) ExtentRange(exts int) (lo, hi int) { return r.slice(exts) }

func (r Restriction) slice(units int) (lo, hi int) {
	if !r.Active() {
		return 0, units
	}
	return splitRange(0, units, r.Shard, r.Shards)
}
