package core

import (
	"context"
	"fmt"

	"repro/internal/arena"
	"repro/internal/bitmap"
	"repro/internal/catalog"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// cancelCheckInterval is how many fact tuples the relational loops
// process between context checks — frequent enough that a canceled
// query stops within microseconds, rare enough that the per-tuple cost
// is unmeasurable.
const cancelCheckInterval = 4096

// dimHash is the relational algorithms' per-dimension in-memory hash
// table (§4.3): dimension key -> group index, built by scanning the
// dimension table. Value-based, in deliberate contrast with the array
// algorithms' position-based IndexToIndex lookups. It is an open-
// addressing (linear probe) table over two pointer-free slices so the
// whole structure can be carved from the query arena instead of the GC
// heap; a vals slot of -1 marks an empty bucket (group codes are >= 0).
type dimHash struct {
	keys []int64
	vals []int32
	mask uint64
}

// newDimHashIn sizes a table for exactly `rows` keys (dimension keys
// are unique, so the row count is the insert count) at a load factor
// of at most 2/3, allocating from ar (nil = GC heap).
func newDimHashIn(ar *arena.Arena, rows uint64) *dimHash {
	capacity := uint64(16)
	for capacity < rows+rows/2+1 {
		capacity <<= 1
	}
	h := &dimHash{
		keys: arena.Make[int64](ar, int(capacity)),
		vals: arena.Make[int32](ar, int(capacity)),
		mask: capacity - 1,
	}
	for i := range h.vals {
		h.vals[i] = -1
	}
	return h
}

// hash64 is a 64-bit finalizer-style mix (splitmix64's) — cheap and
// well distributed for the small integer keys dimension tables use.
func hash64(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (h *dimHash) insert(key int64, code int32) {
	i := hash64(key) & h.mask
	for h.vals[i] >= 0 {
		if h.keys[i] == key {
			h.vals[i] = code
			return
		}
		i = (i + 1) & h.mask
	}
	h.keys[i] = key
	h.vals[i] = code
}

func (h *dimHash) lookup(key int64) (int32, bool) {
	i := hash64(key) & h.mask
	for {
		v := h.vals[i]
		if v < 0 {
			return 0, false
		}
		if h.keys[i] == key {
			return v, true
		}
		i = (i + 1) & h.mask
	}
}

// relGroupState holds the phase-1 output of the relational algorithms:
// one hash table per grouped dimension, plus the result cube.
type relGroupState struct {
	hashes []*dimHash // per dim; nil for collapsed dims
	result *Result
}

// buildRelGroupState scans the dimension tables and builds the per-
// dimension hash tables mapping keys to group indices, with group labels
// assigned in first-seen order. The hash tables and the result cube's
// aggregate planes are carved from ar (nil = GC heap); labels and the
// state struct itself stay on the heap (they hold pointers).
func buildRelGroupState(dims []*catalog.DimensionTable, spec GroupSpec, ar *arena.Arena) (*relGroupState, error) {
	if len(spec) != len(dims) {
		return nil, fmt.Errorf("core: group spec has %d entries for %d dimensions", len(spec), len(dims))
	}
	st := &relGroupState{hashes: make([]*dimHash, len(dims))}
	var groupDims []int
	var labels [][]string
	for i, dg := range spec {
		dt := dims[i]
		switch dg.Target {
		case Collapse:
			// No hash table needed.
		case GroupByKey, GroupByLevel:
			if dg.Target == GroupByLevel && (dg.Level < 0 || dg.Level >= len(dt.Schema.Attrs)) {
				return nil, fmt.Errorf("core: dimension %s has no attribute level %d", dt.Schema.Name, dg.Level)
			}
			rows, err := dt.NumRows()
			if err != nil {
				return nil, err
			}
			h := newDimHashIn(ar, rows)
			var lab []string
			codes := map[string]int32{}
			err = dt.Scan(func(key int64, attrs []string) error {
				var group string
				if dg.Target == GroupByKey {
					group = keyLabel(key)
				} else {
					group = attrs[dg.Level]
				}
				code, ok := codes[group]
				if !ok {
					code = int32(len(lab))
					codes[group] = code
					lab = append(lab, group)
				}
				h.insert(key, code)
				return nil
			})
			if err != nil {
				return nil, err
			}
			st.hashes[i] = h
			groupDims = append(groupDims, i)
			labels = append(labels, lab)
		default:
			return nil, fmt.Errorf("core: unknown group target %d", dg.Target)
		}
	}
	res, err := newResultIn(ar, groupDims, labels)
	if err != nil {
		return nil, err
	}
	st.result = res
	return st, nil
}

// groupIndex probes the dimension hash tables for the tuple's group
// indices and combines them into the aggregation-table key. ok is false
// when a key has no dimension row (a dangling foreign key, which the
// star join drops, matching inner-join semantics).
func (st *relGroupState) groupIndex(keys []int64) (int, bool) {
	idx := 0
	li := 0
	for i, h := range st.hashes {
		if h == nil {
			continue
		}
		code, ok := h.lookup(keys[i])
		if !ok {
			return 0, false
		}
		idx += int(code) * st.result.strides[li]
		li++
	}
	return idx, true
}

// aggSet is the relational aggregation hash table (§4.3): the paper
// probes a hash of the group-by values for each joined tuple. The key is
// the packed group index; the hash probe per fact tuple is the
// value-based cost the paper contrasts with array positions. Like
// dimHash it is an arena-backed open-addressing set (-1 = empty slot;
// group indices are >= 0), doubling through the arena as it fills.
type aggSet struct {
	slots []int64
	mask  uint64
	used  uint64
	ar    *arena.Arena
}

func newAggSetIn(ar *arena.Arena) *aggSet {
	const initial = 1024
	s := &aggSet{slots: arena.Make[int64](ar, initial), mask: initial - 1, ar: ar}
	for i := range s.slots {
		s.slots[i] = -1
	}
	return s
}

func (s *aggSet) add(idx int) {
	i := hash64(int64(idx)) & s.mask
	for s.slots[i] >= 0 {
		if s.slots[i] == int64(idx) {
			return
		}
		i = (i + 1) & s.mask
	}
	s.slots[i] = int64(idx)
	s.used++
	if s.used*3 > (s.mask+1)*2 {
		s.grow()
	}
}

func (s *aggSet) grow() {
	old := s.slots
	capacity := (s.mask + 1) * 2
	// The old slots become dead arena space until the query's arena
	// resets — bounded by 2x the final table size.
	s.slots = arena.Make[int64](s.ar, int(capacity))
	s.mask = capacity - 1
	for i := range s.slots {
		s.slots[i] = -1
	}
	for _, v := range old {
		if v < 0 {
			continue
		}
		i := hash64(v) & s.mask
		for s.slots[i] >= 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = v
	}
}

// tupleAgg is the relational engines' per-tuple step (§4.3), written
// once: take a fact tuple's dimension keys, drop the tuple if it lands
// in a delta-touched chunk or fails a selection, probe the dimension
// hashes for its group, probe the aggregation hash, and fold the
// measure in. The star join's scan (one aggregator per worker) and the
// bitmap algorithm's fetch feed it fact records. An aggregator serves
// one scan on one goroutine.
type tupleAgg struct {
	relGroupState                      // the shared dimension hashes, this aggregator's own cube
	filters       []map[int64]struct{} // per dim: the keys a selection admits (nil = all)
	df            *dirtyFilter         // nil = no tuple is stale
	coords        []int                // df's scratch
	agg           *aggSet
	tuples        int64 // records seen

	// record is the fact-file callback (ScanRange and FetchBits share
	// its shape): decode one record and add it, checking ctx every
	// cancelCheckInterval records. A closure built here, once, rather
	// than a method value: the scan reaches it in one indirect call, and
	// the compiler inlines the record decoding into it.
	record func(tup uint64, rec []byte) error
}

// newTupleAgg builds an aggregator over the shared hashes that folds
// into res, with its aggregation set carved from res's arena.
func newTupleAgg(ctx context.Context, hashes []*dimHash, res *Result, filters []map[int64]struct{}, df *dirtyFilter) *tupleAgg {
	keys := make([]int64, len(hashes))
	t := &tupleAgg{
		relGroupState: relGroupState{hashes: hashes, result: res},
		filters:       filters,
		df:            df,
		agg:           newAggSetIn(res.mem),
	}
	if df != nil {
		t.coords = make([]int, len(hashes))
	}
	t.record = func(_ uint64, rec []byte) error {
		if t.tuples%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t.tuples++
		for i := range keys {
			keys[i] = catalog.FactKey(rec, i)
		}
		t.add(keys, catalog.FactMeasure(rec, len(keys)))
		return nil
	}
	return t
}

// add folds in one tuple: its dimension keys and its measure.
func (t *tupleAgg) add(keys []int64, v int64) {
	if t.df != nil && t.df.dirty(keys, t.coords) {
		return
	}
	for i, f := range t.filters {
		if f != nil {
			if _, ok := f[keys[i]]; !ok {
				return
			}
		}
	}
	idx, ok := t.groupIndex(keys)
	if !ok {
		return
	}
	// The aggregation-hash probe: membership is tracked in a real hash
	// table so the per-tuple hashing cost is paid as in the paper's
	// operator; the accumulator array is its entry payload.
	t.agg.add(idx)
	t.result.aggs[idx].add(v)
}

// relConsolidate is the frame both relational engines run in: validate
// the spec, build the dimension hashes once, run scan on up to s.Workers
// workers — each with an aggregator of its own, claiming the run's units
// units of work through next — merge the partial cubes, and — when
// deltas are pending — fold the touched chunks the query can reach back
// in from the merged array (foldOverlay).
//
// The hashes and key sets are write-free after construction and shared
// read-only. They live with worker 0's cube in one arena, which travels
// with the merged result; the other workers aggregate into clones of
// that cube in arenas of their own, recycled as they merge.
//
// filterScan says whether scan needs the selections applied tuple by
// tuple (the star join) or has already applied them (the bitmap fetch).
func relConsolidate(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, s ScanSpec, units int, filterScan bool,
	scan func(ctx context.Context, t *tupleAgg, next func() (int, bool), m *Metrics) error) (*Result, Metrics, error) {
	err := s.validate(len(dims), func(i int) (string, int) { return dims[i].Schema.Name, len(dims[i].Schema.Attrs) })
	if err != nil {
		return nil, Metrics{}, err
	}
	df, err := newDirtyFilter(s.Overlay, dims)
	if err != nil {
		return nil, Metrics{}, err
	}
	ar := queryArenas.Get()
	st, err := buildRelGroupState(dims, s.Group, ar)
	if err != nil {
		queryArenas.Put(ar)
		return nil, Metrics{}, err
	}
	var filters []map[int64]struct{}
	if filterScan {
		if filters, err = selectionKeySets(dims, s.Selections); err != nil {
			st.result.Release()
			return nil, Metrics{}, err
		}
	}

	perPage := int64(ff.TuplesPerPage())
	res, m, err := runParts(ctx, s.Workers, units, func(ctx context.Context, w int, next func() (int, bool), p *workerPartial) {
		p.res = st.result
		if w > 0 {
			war := queryArenas.Get()
			if p.res, p.err = st.result.emptyCloneIn(war); p.err != nil {
				queryArenas.Put(war)
				return
			}
		}
		t := newTupleAgg(ctx, st.hashes, p.res, filters, df)
		p.err = scan(ctx, t, next, &p.m)
		p.rows, p.io = t.tuples, (t.tuples+perPage-1)/perPage
	})
	if err != nil {
		return nil, m, err // runParts released every cube, st.result among them
	}
	if df != nil {
		// The stale tuples were skipped; the merged array's cells in
		// their chunks replace them.
		if err := foldOverlay(ctx, &s, st.hashes, res, &m); err != nil {
			res.Release()
			return nil, m, err
		}
	}
	return res, m, nil
}

// StarJoinConsolidate evaluates a consolidation with the relational
// StarJoin operator of §4.3: build an in-memory hash table per dimension
// (key -> group-by value), then scan the fact file once; for each tuple,
// probe every dimension hash, locate the group in the aggregation hash
// table, and fold the measure in. Selections are applied during the scan
// (no bitmap index): each selected dimension contributes an in-memory
// set of qualifying keys and non-members are dropped tuple by tuple —
// the "no index" relational baseline the bitmap algorithm of §4.5 is
// built to beat. s.Workers workers claim the fact file's extents one at
// a time: the file's O(1) addressing makes starting mid-file free, and
// extents never share a page.
func StarJoinConsolidate(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable, s ScanSpec) (*Result, Metrics, error) {
	perExt := uint64(ff.ExtentTuples())
	return relConsolidate(ctx, ff, dims, s, ff.NumExtents(), true,
		func(_ context.Context, t *tupleAgg, next func() (int, bool), m *Metrics) error {
			var err error
			for e, ok := next(); ok && err == nil; e, ok = next() {
				err = ff.ScanRange(uint64(e)*perExt, uint64(e+1)*perExt, t.record)
			}
			m.TuplesScanned = t.tuples
			return err
		})
}

// selectionKeySets builds, per dimension, the set of dimension keys
// satisfying the (validated) selections: a nil set for an unselected
// dimension, no sets at all without selections.
func selectionKeySets(dims []*catalog.DimensionTable, sels []Selection) ([]map[int64]struct{}, error) {
	if len(sels) == 0 {
		return nil, nil
	}
	// Group selections per dimension.
	byDim := make([][]Selection, len(dims))
	for _, s := range sels {
		byDim[s.Dim] = append(byDim[s.Dim], s)
	}
	out := make([]map[int64]struct{}, len(dims))
	for i, ds := range byDim {
		if len(ds) == 0 {
			continue
		}
		set := make(map[int64]struct{})
		err := dims[i].Scan(func(key int64, attrs []string) error {
			for _, s := range ds {
				match := false
				for _, v := range s.Values {
					if attrs[s.Level] == v {
						match = true
						break
					}
				}
				if !match {
					return nil
				}
			}
			set[key] = struct{}{}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[i] = set
	}
	return out, nil
}

// BuildBitmapIndexes creates the join bitmap indices of §4.4: for every
// hierarchy attribute of every dimension, one bitmap per distinct value
// over the fact file's tuple numbers. Built ahead of query time, as in
// the paper. Returns the indexes keyed by catalog.BitmapKey.
func BuildBitmapIndexes(ff *factfile.File, dims []*catalog.DimensionTable) (map[string]*bitmap.Index, error) {
	// Per dimension: key -> attribute values.
	attrMaps := make([]map[int64][]string, len(dims))
	for i, dt := range dims {
		attrMaps[i] = make(map[int64][]string)
		err := dt.Scan(func(key int64, attrs []string) error {
			attrMaps[i][key] = attrs
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*bitmap.Index)
	for _, dt := range dims {
		for _, attr := range dt.Schema.Attrs {
			out[catalog.BitmapKey(dt.Schema.Name, attr)] = bitmap.NewIndex(ff.NumTuples())
		}
	}
	err := ff.Scan(func(tup uint64, rec []byte) error {
		for i, dt := range dims {
			key := catalog.FactKey(rec, i)
			attrs, ok := attrMaps[i][key]
			if !ok {
				return fmt.Errorf("core: fact tuple %d references unknown %s key %d", tup, dt.Schema.Name, key)
			}
			for li, attr := range dt.Schema.Attrs {
				out[catalog.BitmapKey(dt.Schema.Name, attr)].Add(attrs[li], tup)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BitmapIndexSource serves single-value bitmaps from the join bitmap
// index on a (dimension, attr) pair — the §4.5 access pattern ("retrieve
// the bitmaps for the selected values"). OrBitmap ORs value's bitmap
// into dst, which must cover every fact tuple; ok is false when no fact
// tuple carries the value. An error means the index itself is missing
// or unreadable.
type BitmapIndexSource interface {
	OrBitmap(dim, attr, value string, dst *bitmap.Bitmap) (ok bool, err error)
}

// BitmapSelectConsolidate evaluates a consolidation with selection using
// the relational algorithm of §4.5: start from an all-ones ResultBitmap,
// AND in the bitmaps of the selected values dimension by dimension, then
// fetch exactly the qualifying tuples from the fact file and aggregate
// them (with the same per-dimension group hash tables as the star join).
//
// Each selected value's bitmap is OR-ed straight into the predicate's
// merge buffer as it is read, with no bitmap of its own. The run is one
// unit, so one worker whatever s.Workers: the LOB readers are not
// shareable, a word-parallel AND is too short to pay for its goroutines,
// and the fetch is I/O-ordered. ctx is checked between bitmap retrievals
// and during the fetch.
func BitmapSelectConsolidate(ctx context.Context, ff *factfile.File, dims []*catalog.DimensionTable,
	src BitmapIndexSource, s ScanSpec) (*Result, Metrics, error) {
	return relConsolidate(ctx, ff, dims, s, 1, false,
		func(ctx context.Context, t *tupleAgg, _ func() (int, bool), m *Metrics) error {
			// The working bitmaps (ResultBitmap + per-predicate merge
			// buffer) share the query arena with the hash tables and the
			// cube.
			ar, nt := t.result.mem, ff.NumTuples()
			result := bitmap.NewFrom(nt, arena.Make[uint64](ar, bitmap.WordsFor(nt)))
			result.SetAll()
			merged := bitmap.NewFrom(nt, arena.Make[uint64](ar, bitmap.WordsFor(nt)))
			for _, sel := range s.Selections {
				if err := ctx.Err(); err != nil {
					return err
				}
				// Values within one predicate union (OR), then AND into
				// the running ResultBitmap. Only the selected values'
				// bitmaps are retrieved from the index.
				schema := dims[sel.Dim].Schema
				merged.ClearAll()
				for _, v := range sel.Values {
					ok, err := src.OrBitmap(schema.Name, schema.Attrs[sel.Level], v, merged)
					if err != nil {
						return err
					}
					if ok {
						m.BitmapsRead++
						m.BitmapANDs++
					}
				}
				result.And(merged)
				m.BitmapANDs++
			}
			err := ff.FetchBits(result, t.record)
			m.TuplesFetched = t.tuples
			return err
		})
}

// MemBitmapSource adapts an in-memory index map to BitmapIndexSource.
type MemBitmapSource map[string]*bitmap.Index

// OrBitmap implements BitmapIndexSource.
func (s MemBitmapSource) OrBitmap(dim, attr, value string, dst *bitmap.Bitmap) (bool, error) {
	ix, ok := s[catalog.BitmapKey(dim, attr)]
	if !ok {
		return false, fmt.Errorf("core: no bitmap index on %s.%s", dim, attr)
	}
	bm, ok := ix.Get(value)
	if !ok {
		return false, nil
	}
	if bm.Len() != dst.Len() {
		return false, fmt.Errorf("core: bitmap index on %s.%s has %d bits, want %d", dim, attr, bm.Len(), dst.Len())
	}
	dst.Or(bm)
	return true, nil
}

// LOBBitmapSource serves single value bitmaps from index blobs recorded
// in a catalog, reading only the directory plus the requested values'
// payload ranges, in place. Index readers are cached per attribute.
type LOBBitmapSource struct {
	Lob     *storage.LOBStore
	Refs    map[string]uint64 // catalog.BitmapIndexes
	readers map[string]*bitmap.IndexReader
}

// OrBitmap implements BitmapIndexSource.
func (s *LOBBitmapSource) OrBitmap(dim, attr, value string, dst *bitmap.Bitmap) (bool, error) {
	key := catalog.BitmapKey(dim, attr)
	if s.readers == nil {
		s.readers = make(map[string]*bitmap.IndexReader)
	}
	r, ok := s.readers[key]
	if !ok {
		ref, exists := s.Refs[key]
		if !exists {
			return false, fmt.Errorf("core: no bitmap index on %s.%s (build indexes first)", dim, attr)
		}
		var err error
		r, err = bitmap.OpenIndexReader(s.Lob, storage.LOBRef{First: storage.PageID(ref)})
		if err != nil {
			return false, err
		}
		s.readers[key] = r
	}
	return r.OrInto(value, dst)
}
