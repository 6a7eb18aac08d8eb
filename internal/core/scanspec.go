package core

import (
	"fmt"

	"repro/internal/chunk"
)

// ScanSpec is everything one consolidation run varies over. The
// engines' run functions — ArrayConsolidate, StarJoinConsolidate,
// BitmapSelectConsolidate — each take their physical inputs and one
// ScanSpec; what used to be a family of entry points per engine is a
// field here, and a field's zero value is the plain case: no selection,
// sequential, no pending deltas.
type ScanSpec struct {
	// Selections are the query's predicates; none selects every cell.
	Selections []Selection
	// Group holds one grouping choice per dimension.
	Group GroupSpec
	// Workers is the intra-query parallel degree. Anything <= 1 runs
	// sequentially on the caller's goroutine; a larger degree is clamped
	// to the engine's work units (the array's candidate chunks, the fact
	// file's extents), which the workers claim one at a time.
	// Resolving "use every core" to a number is the caller's business.
	Workers int
	// View is what every array read of the run reads the chunk store
	// under: the pending overlay of one delta instant, the versions of
	// that instant and the decoded-chunk cache they tag. Each worker
	// reads through its own chunk.Reader over it. The zero View reads
	// the base cells alone, uncached.
	View chunk.View
	// Overlay makes the relational engines agree with the array under
	// View; nil means nothing in reach was ever ingested. The array
	// engine reads its overlay through View and ignores this field.
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
// data: every selection names a real attribute level. dim reports a
// dimension's name and how many levels it has. (The group spec is checked
// where it is resolved into tables, which the oracles share.)
func (s *ScanSpec) validate(nDims int, dim func(i int) (name string, levels int)) error {
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
