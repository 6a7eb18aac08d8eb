package core

import (
	"fmt"

	"repro/internal/arena"
)

// emptyCloneIn allocates, from a, a zeroed result with the same grouping
// shape and the same (shared, read-only) label slices — the thread-local
// partial accumulator of one parallel worker, guaranteed Merge-compatible
// with its siblings.
func (r *Result) emptyCloneIn(a *arena.Arena) (*Result, error) {
	return newResultIn(a, r.groupDims, r.labels)
}

// Merge folds other into r cell by cell. Both results must come from the
// same grouping (identical group dimensions and labels); the parallel
// consolidation merges per-worker partial results this way.
func (r *Result) Merge(other *Result) error {
	if len(r.labels) != len(other.labels) || r.cells != other.cells {
		return fmt.Errorf("core: merge of incompatible results")
	}
	for i := range r.labels {
		if len(r.labels[i]) != len(other.labels[i]) {
			return fmt.Errorf("core: merge of incompatible results")
		}
	}
	for idx, a := range other.aggs {
		if a.count > 0 {
			r.aggs[idx].merge(a)
		}
	}
	return nil
}

// RollUp aggregates away the drop-th grouped dimension (an index into
// GroupDims, not a dimension position), producing the coarser result one
// level up the cube lattice. All tracked aggregates are distributive
// (sum, count, min, max), so rolling up a materialized result is exact.
func (r *Result) RollUp(drop int) (*Result, error) {
	if drop < 0 || drop >= len(r.groupDims) {
		return nil, fmt.Errorf("core: RollUp(%d) of a %d-dimension result", drop, len(r.groupDims))
	}
	outDims := make([]int, 0, len(r.groupDims)-1)
	outLabels := make([][]string, 0, len(r.labels)-1)
	for i := range r.groupDims {
		if i == drop {
			continue
		}
		outDims = append(outDims, r.groupDims[i])
		outLabels = append(outLabels, r.labels[i])
	}
	out, err := newResult(outDims, outLabels)
	if err != nil {
		return nil, err
	}
	coords := make([]int, len(r.labels))
	for idx, a := range r.aggs {
		if a.count == 0 {
			continue
		}
		rem := idx
		for i := range r.labels {
			coords[i] = rem / r.strides[i]
			rem %= r.strides[i]
		}
		outIdx := 0
		oi := 0
		for i := range r.labels {
			if i == drop {
				continue
			}
			outIdx += coords[i] * out.strides[oi]
			oi++
		}
		out.aggs[outIdx].merge(a)
	}
	return out, nil
}
