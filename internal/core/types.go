// Package core implements the paper's query evaluation algorithms:
//
//   - ArrayConsolidate (§4.1): the OLAP Array consolidation that fuses
//     the star join and the aggregation into one position-based pass.
//   - ArraySelectConsolidate (§4.2): consolidation with selection via
//     B-tree index lists and chunk-ordered cross-product probing.
//   - StarJoinConsolidate (§4.3): the relational baseline — one hash
//     table per dimension plus an aggregation hash table over a fact
//     file scan.
//   - BitmapSelectConsolidate (§4.5): the relational selection baseline —
//     AND the per-value join bitmaps, then fetch qualifying tuples from
//     the fact file.
//
// All algorithms share the same group-by specification and produce the
// same Result type, which the test suite exploits: every plan must
// return identical rows on identical data.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/arena"
)

// GroupTarget says how one dimension participates in a consolidation.
type GroupTarget int8

const (
	// Collapse aggregates the dimension away entirely (it is absent
	// from the GROUP BY).
	Collapse GroupTarget = iota
	// GroupByKey groups by the dimension key itself (no consolidation
	// along the dimension).
	GroupByKey
	// GroupByLevel groups by a hierarchy attribute level, consolidating
	// members that share the attribute value.
	GroupByLevel
)

// DimGroup is the per-dimension grouping choice; Level is meaningful only
// for GroupByLevel.
type DimGroup struct {
	Target GroupTarget
	Level  int
}

// GroupSpec holds one DimGroup per dimension, in dimension order.
type GroupSpec []DimGroup

// GroupByAttrs builds the GroupSpec for "GROUP BY attr-level L on every
// dimension" — the shape of the paper's Query 1.
func GroupByAttrs(nDims, level int) GroupSpec {
	spec := make(GroupSpec, nDims)
	for i := range spec {
		spec[i] = DimGroup{Target: GroupByLevel, Level: level}
	}
	return spec
}

// Selection is an equality (or IN-list) predicate on one hierarchy
// attribute of one dimension: dim.attr IN Values. Multiple Selections on
// the same dimension intersect; Values within one Selection union.
type Selection struct {
	Dim    int
	Level  int
	Values []string
}

// AggFunc selects the aggregate reported by Result rows. All plans
// accumulate sum, count, min, and max, so any AggFunc can be read from
// the same Result.
type AggFunc int8

// Aggregate functions. Sum is what the paper implements; Count, Min,
// Max, and Avg are the "easily extended" aggregates of §4.1.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

// String implements fmt.Stringer.
func (a AggFunc) String() string {
	switch a {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", int8(a))
	}
}

// maxResultCells bounds the result cube; the paper's algorithm assumes
// the result OLAP object fits in memory (§4.1) and notes the chunk-by-
// chunk extension as future work, as do we.
const maxResultCells = 1 << 27

// Result is the output of a consolidation: a dense cube over the group
// dimensions with per-cell aggregate state. Cells never touched by a
// qualifying tuple are not reported (SQL GROUP BY semantics).
type Result struct {
	groupDims []int      // positions (dimension order) of grouped dims
	labels    [][]string // per grouped dim: group index -> label
	strides   []int      // per grouped dim
	cells     int

	sums, counts, mins, maxs []int64

	// mem, when non-nil, owns the aggregate slices (and, for the query
	// that built this result, its decode scratch). Release recycles it.
	mem *arena.Arena
}

// queryArenas recycles query-lifetime arenas: one per sequential query or
// per parallel worker, released when the result is merged or its rows
// are materialized.
var queryArenas = arena.NewPool()

// newResult allocates a result cube on the GC heap.
func newResult(groupDims []int, labels [][]string) (*Result, error) {
	return newResultIn(nil, groupDims, labels)
}

// newResultIn allocates a result cube with its aggregate state carved
// from a (nil = GC heap). labels[i] lists the group labels of the i-th
// grouped dimension.
func newResultIn(a *arena.Arena, groupDims []int, labels [][]string) (*Result, error) {
	r := &Result{groupDims: groupDims, labels: labels, cells: 1, mem: a}
	r.strides = make([]int, len(labels))
	for i := len(labels) - 1; i >= 0; i-- {
		r.strides[i] = r.cells
		r.cells *= len(labels[i])
		if r.cells > maxResultCells {
			return nil, fmt.Errorf("core: result cube exceeds %d cells", maxResultCells)
		}
	}
	r.sums = arena.Make[int64](a, r.cells)
	r.counts = arena.Make[int64](a, r.cells)
	r.mins = arena.Make[int64](a, r.cells)
	r.maxs = arena.Make[int64](a, r.cells)
	return r, nil
}

// Release returns the result's arena (if any) to the query-arena pool.
// The result, and any cell slice decoded by the query that built it,
// must not be used afterwards; rows already materialized with Rows or
// SortedRows are unaffected (they are GC-heap copies). Release on a
// heap-backed result is a no-op, so callers can release unconditionally.
func (r *Result) Release() {
	if r == nil || r.mem == nil {
		return
	}
	a := r.mem
	r.mem = nil
	// Nil the aggregate slices so a use-after-release fails loudly
	// instead of reading recycled memory.
	r.sums, r.counts, r.mins, r.maxs = nil, nil, nil, nil
	queryArenas.Put(a)
}

// Clone returns a GC-heap copy of the cube, one that outlives the query's
// arena; it shares the read-only labels.
func (r *Result) Clone() *Result {
	c := *r
	c.mem = nil
	c.sums, c.counts = slices.Clone(r.sums), slices.Clone(r.counts)
	c.mins, c.maxs = slices.Clone(r.mins), slices.Clone(r.maxs)
	return &c
}

// Bytes is the memory the cube's aggregate state holds.
func (r *Result) Bytes() int64 { return int64(r.cells) * 32 }

// add folds one value into the cell at linear index idx.
func (r *Result) add(idx int, v int64) {
	if r.counts[idx] == 0 {
		r.mins[idx] = v
		r.maxs[idx] = v
	} else {
		if v < r.mins[idx] {
			r.mins[idx] = v
		}
		if v > r.maxs[idx] {
			r.maxs[idx] = v
		}
	}
	r.sums[idx] += v
	r.counts[idx]++
}

// NumGroups reports the number of non-empty groups.
func (r *Result) NumGroups() int {
	n := 0
	for _, c := range r.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// GroupDims returns the dimension positions that are grouped, in order.
func (r *Result) GroupDims() []int { return r.groupDims }

// Row is one output group with its aggregate state.
type Row struct {
	// Groups holds the group labels, one per grouped dimension in
	// dimension order.
	Groups []string
	Sum    int64
	Count  int64
	Min    int64
	Max    int64
}

// Avg returns the mean measure of the group.
func (r Row) Avg() float64 { return float64(r.Sum) / float64(r.Count) }

// Value returns the aggregate selected by agg. Avg is rounded to the
// nearest integer (half away from zero) when read through Value; use
// Row.Avg for the exact mean.
func (r Row) Value(agg AggFunc) int64 {
	switch agg {
	case Sum:
		return r.Sum
	case Count:
		return r.Count
	case Min:
		return r.Min
	case Max:
		return r.Max
	case Avg:
		return int64(math.Round(r.Avg()))
	default:
		return r.Sum
	}
}

// Rows materializes the non-empty groups in cube order. All group-label
// slices share one backing array, so materializing a large result costs
// two allocations, not one per row.
func (r *Result) Rows() []Row {
	n := r.NumGroups()
	out := make([]Row, 0, n)
	backing := make([]string, n*len(r.labels))
	for idx, c := range r.counts {
		if c == 0 {
			continue
		}
		groups := backing[:len(r.labels):len(r.labels)]
		backing = backing[len(r.labels):]
		rem := idx
		for i := range r.labels {
			groups[i] = r.labels[i][rem/r.strides[i]]
			rem %= r.strides[i]
		}
		out = append(out, Row{Groups: groups, Sum: r.sums[idx], Count: c, Min: r.mins[idx], Max: r.maxs[idx]})
	}
	return out
}

// SortedRows returns Rows sorted lexicographically by group labels, for
// deterministic output and cross-plan comparison.
func (r *Result) SortedRows() []Row {
	rows := r.Rows()
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Groups {
			if rows[i].Groups[k] != rows[j].Groups[k] {
				return rows[i].Groups[k] < rows[j].Groups[k]
			}
		}
		return false
	})
	return rows
}

// Metrics counts the work an algorithm did; the benchmark harness reports
// them next to wall-clock times.
type Metrics struct {
	// Array-side counters. A full consolidation visits every valid cell
	// of every chunk it reads, so its CellsScanned is the valid-cell count
	// of its chunk range and it never probes. A selection decides per
	// candidate chunk: a probed chunk adds one Probe per element of its
	// cross product and one ProbeHit per element that is a valid cell; a
	// filter-scanned chunk adds all its valid cells to CellsScanned and
	// nothing to the probe counters (how many passed the mask is not
	// counted). Every counter is a per-chunk sum, so it is the same at any
	// parallel degree.
	ChunksRead   int64 // chunks fetched and decoded
	CellsScanned int64 // valid cells visited by scans and filter-scans
	Probes       int64 // binary-search probes of chunk cells
	ProbeHits    int64 // probes that found a valid cell

	// Relational-side counters. A relational run that folds delta-touched
	// chunks through the array kernel counts the fold in the array-side
	// counters above, as the array engine would (ChunksRead = folded).
	TuplesScanned int64 // fact tuples visited by full scans
	TuplesFetched int64 // fact tuples fetched through a bitmap
	BitmapsRead   int64 // value bitmaps fetched from bitmap indices
	BitmapANDs    int64 // bitmap AND/OR operations applied

	// The relational engines' overlay fold: how many touched chunks the
	// run was handed and how long folding the reachable ones took. Zero
	// when nothing the query can see was ever ingested into.
	OverlayTouched int64 `json:",omitempty"`
	OverlayFoldNS  int64 `json:",omitempty"`

	// An array run the executor cut at the ingest-touched chunks in its
	// reach (HotChunks of them): ColdCube is "hit" when the cube of the
	// other chunks came from the result cache — the array-side counters
	// then cover the hot side only — "built" when this run aggregated and
	// stored it, and empty on an uncut run.
	ColdCube  string `json:",omitempty"`
	HotChunks int64  `json:",omitempty"`

	// Planner estimates for the chosen plan, filled by the executor
	// before the run so every result carries predicted next to measured
	// cost. Zero when the planner had no statistics to estimate with.
	EstCostIO  float64 // predicted page reads
	EstCostCPU float64 // predicted CPU work, in page-read equivalents
	EstRows    int64   // predicted qualifying fact tuples

	// Intra-query parallelism. ParallelDegree is the number of workers
	// that actually ran (0 or 1 = sequential); WorkerRows, WorkerIO,
	// and WorkerBusyNS carry the per-worker row/chunk-read/busy-time
	// breakdown, in worker order (busy time feeds the per-worker trace
	// spans). ParallelEfficiency is total worker busy time divided by
	// degree x the slowest worker's busy time: 1.0 means perfectly
	// balanced partitions, lower values mean workers idled at the merge
	// barrier.
	ParallelDegree     int     `json:",omitempty"`
	WorkerRows         []int64 `json:",omitempty"`
	WorkerIO           []int64 `json:",omitempty"`
	WorkerBusyNS       []int64 `json:",omitempty"`
	ParallelEfficiency float64 `json:",omitempty"`
}

// Add sums o's work counters into m; every other field stays m's.
func (m *Metrics) Add(o *Metrics) {
	m.ChunksRead += o.ChunksRead
	m.CellsScanned += o.CellsScanned
	m.Probes += o.Probes
	m.ProbeHits += o.ProbeHits
	m.TuplesScanned += o.TuplesScanned
	m.TuplesFetched += o.TuplesFetched
	m.BitmapsRead += o.BitmapsRead
	m.BitmapANDs += o.BitmapANDs
}

// keyLabel renders a dimension key as a group label.
func keyLabel(k int64) string { return strconv.FormatInt(k, 10) }
