package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// Cost is a plan cost estimate in the paper's currency: page I/O plus
// CPU work expressed in page-read equivalents, so one Total orders
// plans the way the paper's disk-resident experiments do (§5.6).
type Cost struct {
	IO   float64 // page reads
	CPU  float64 // CPU work, in page-read equivalents
	Rows int64   // estimated qualifying fact tuples
}

// Total is the scalar the planner minimizes.
func (c Cost) Total() float64 { return c.IO + c.CPU }

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("cost=%.1f (io=%.1f cpu=%.1f) rows=%d", c.Total(), c.IO, c.CPU, c.Rows)
}

// PlanDesc is one operator of an EXPLAIN plan tree. The Est fields come
// from planning; the Act fields are filled by Annotate after an EXPLAIN
// ANALYZE run (Analyzed marks a node that carries actuals).
type PlanDesc struct {
	Name     string
	Detail   string
	EstRows  int64
	EstIO    float64
	Children []PlanDesc

	Analyzed  bool
	ActRows   int64
	ActIO     float64 // physical page reads attributed to this operator
	ActTime   time.Duration
	ActDetail string // operator-specific measured counters
}

// clone copies the tree, so one run's Annotate leaves the original —
// the statement memo's, shared by every run — untouched.
func (d PlanDesc) clone() PlanDesc {
	if len(d.Children) > 0 {
		kids := make([]PlanDesc, len(d.Children))
		for i := range d.Children {
			kids[i] = d.Children[i].clone()
		}
		d.Children = kids
	}
	return d
}

// RunStats is what one plan execution measured: the algorithm's own
// counters, the buffer pool I/O delta, wall time, and result size.
// Annotate maps it onto the operator tree.
type RunStats struct {
	Metrics    core.Metrics
	IO         storage.Stats
	Elapsed    time.Duration
	ResultRows int
}

// Plan is one executable strategy for a compiled query: a node the
// planner can cost from catalog statistics, run against the shared
// execution state, and describe as an operator tree.
type Plan interface {
	// Name is the plan name reported in QueryResult.Plan.
	Name() string
	// Engine is the engine family the plan belongs to.
	Engine() Engine
	// Estimate predicts the plan's cost from load-time statistics. It
	// must tolerate incomplete statistics (missing array or bitmap
	// sections simply don't arise: the planner only builds plans whose
	// physical objects exist).
	Estimate(st *catalog.Stats) Cost
	// Run executes the plan. The context is checked inside the operator
	// loops (between chunk batches and every few thousand tuples), so a
	// canceled query releases its goroutine promptly. view is the live
	// ingest state the execution reads under, taken once by its caller.
	Run(ctx context.Context, ec *ExecContext, view *ingestView) (*core.Result, core.Metrics, error)
	// Explain describes the plan as an operator tree, annotated with
	// the most recent Estimate.
	Explain() PlanDesc
	// Annotate writes one run's measured statistics onto the operator
	// tree produced by Explain — the ANALYZE half of EXPLAIN ANALYZE.
	// The monolithic §4 algorithms report run-level counters, so each
	// plan attributes them to the operator that did the work (the scan,
	// probe, or fetch); physical reads land on the leaf that caused
	// them and wall time on the root.
	Annotate(d *PlanDesc, rs RunStats)
}

// Cost model constants. IO terms are literal page counts from the
// statistics; CPU terms convert per-item work to page-read equivalents.
// The ratios are what matter: they are tuned so the model reproduces
// the paper's orderings — array wins full consolidations (Figs 4/5),
// bitmap+fact-file wins high-selectivity selections (Figs 8/9), star
// join only wins when neither index exists.
const (
	cpuCellCost   = 0.0005 // per valid cell visited by a full array scan
	cpuProbeCost  = 0.0001 // per candidate cell probed by ArraySelectConsolidate
	cpuTupleCost  = 0.001  // per fact tuple scanned or fetched (join + grouping)
	btreeProbeIO  = 0.5    // per selection value: attribute B-tree index-list lookup
	bitmapFloorIO = 0.5    // minimum pages to read one value bitmap
)

// selectionFractions estimates the per-dimension selected fraction
// f_d = |values| / distinct(dim, level) from the statistics, 1.0 for
// unselected dimensions. Multiple selections on one dimension multiply
// (treated as intersecting), and every fraction is clamped to [?, 1].
func selectionFractions(st *catalog.Stats, nDims int, sels []core.Selection) []float64 {
	fr := make([]float64, nDims)
	for i := range fr {
		fr[i] = 1
	}
	for _, s := range sels {
		if s.Dim < 0 || s.Dim >= nDims {
			continue
		}
		distinct, ok := st.AttrDistinctOf(s.Dim, s.Level)
		if !ok {
			continue // no statistics for this attribute: assume no filtering
		}
		f := float64(len(s.Values)) / float64(distinct)
		if f > 1 {
			f = 1
		}
		fr[s.Dim] *= f
	}
	return fr
}

// combinedSelectivity is the paper's S: the product of the per-dimension
// selected fractions.
func combinedSelectivity(fr []float64) float64 {
	s := 1.0
	for _, f := range fr {
		s *= f
	}
	return s
}

// selectionDetail renders one selection for EXPLAIN output.
func selectionDetail(schema *catalog.StarSchema, s core.Selection) string {
	d := &schema.Dimensions[s.Dim]
	attr := d.Key
	if s.Level >= 0 && s.Level < len(d.Attrs) {
		attr = d.Attrs[s.Level]
	}
	if len(s.Values) == 1 {
		return fmt.Sprintf("%s.%s = '%s'", d.Name, attr, s.Values[0])
	}
	return fmt.Sprintf("%s.%s in %v", d.Name, attr, s.Values)
}

// planScan is the state every plan carries: the scan the planner built
// for the query, and what Estimate last predicted for it.
type planScan struct {
	// scan is what Run hands the engine: the query's selections and
	// grouping, and the session's parallel degree (0, on a plan built
	// outside the executor, is sequential).
	scan   core.ScanSpec
	schema *catalog.StarSchema
	reach  *chunkReach // the statement's candidate chunks; nil = all

	est    Cost
	estSel float64
	// estDeg is scan.Workers clamped to the plan's work units by
	// Estimate; 0 until then.
	estDeg int
}

// chosenDegree reports the parallel degree EXPLAIN shows for the plan.
func (p *planScan) chosenDegree() int {
	if p.estDeg > 0 {
		return p.estDeg
	}
	return max(p.scan.Workers, 1)
}

// arrayPlan evaluates on the OLAP Array ADT: §4.1 without selections,
// §4.2 with them.
type arrayPlan struct {
	planScan

	estChunks  float64 // chunks predicted to be read (select path)
	estProbes  float64 // candidate cells predicted to be probed
	haveEst    bool
	totalChunk int
}

func (p *arrayPlan) Name() string {
	if len(p.scan.Selections) > 0 {
		return "array-select-consolidate"
	}
	return "array-consolidate"
}

func (p *arrayPlan) Engine() Engine { return ArrayEngine }

func (p *arrayPlan) Estimate(st *catalog.Stats) Cost {
	a := st.Array
	if a == nil {
		return Cost{}
	}
	p.haveEst = true
	p.totalChunk = a.NumChunks
	if len(p.scan.Selections) == 0 {
		// Full consolidation decodes every chunk: the compressed payload
		// is the I/O, one aggregation step per valid cell is the CPU. The
		// CPU divides across the chunk-parallel workers; the I/O does not
		// (the buffer pool is shared).
		p.estDeg = core.ClampWorkers(p.scan.Workers, a.NumChunks)
		p.est = Cost{
			IO:   float64(a.EncodedBytes) / storage.PageSize,
			CPU:  float64(a.ValidCells) * cpuCellCost / float64(p.estDeg),
			Rows: a.ValidCells,
		}
		p.estSel = 1
		p.estChunks = float64(a.NumChunks)
		return p.est
	}

	fr := selectionFractions(st, len(a.DimSizes), p.scan.Selections)
	p.estSel = combinedSelectivity(fr)

	// §4.2 reads only chunks overlapping the selected members. Members
	// sharing a hierarchy value are clustered in index order (§5.1), so
	// m selected members cover at most ceil(m/side)+1 chunks along their
	// dimension (the +1 is the worst-case block straddle).
	candChunks := 1.0
	candCells := 1.0
	values := 0
	for d, size := range a.DimSizes {
		side := a.ChunkShape[d]
		along := float64((size + side - 1) / side)
		m := fr[d] * float64(size)
		if m < 1 {
			m = 1
		}
		candCells *= m
		if fr[d] < 1 {
			cand := float64(int(m+float64(side)-1)/side) + 1
			if cand < along {
				along = cand
			}
		}
		candChunks *= along
	}
	for _, s := range p.scan.Selections {
		values += len(s.Values)
	}
	p.estChunks = candChunks
	p.estProbes = candCells
	p.estDeg = core.ClampWorkers(p.scan.Workers, int(candChunks))

	// Per candidate chunk the kernel probes the cross product or, when
	// one masked pass over the chunk's cells is cheaper, filter-scans it
	// (core's chunkKernel.consolidateSelected): charge the cheaper of the
	// two at the average chunk, so a dense selection never costs more CPU
	// than the full scan of the chunks it touches.
	cpu := min(candCells*cpuProbeCost,
		candChunks*float64(a.ValidCells)/float64(a.NumChunks)*cpuCellCost)
	perChunk := float64(a.EncodedBytes) / storage.PageSize / float64(a.NumChunks)
	p.est = Cost{
		IO:   candChunks*perChunk + float64(values)*btreeProbeIO,
		CPU:  cpu / float64(p.estDeg),
		Rows: int64(p.estSel*float64(a.ValidCells) + 0.5),
	}
	return p.est
}

// Run, under live ingest, cuts the consolidation at the statement's hot
// chunks when the view names a place to keep the other side: the cube of
// the chunks never ingested into is the same for every run that sees the
// same hot list, so it is aggregated once, kept under that list, and
// merged with a fold of the hot chunks alone (DESIGN.md §3j). With
// nothing in reach touched, or everything, the run is the plain one.
func (p *arrayPlan) Run(ctx context.Context, ec *ExecContext, view *ingestView) (*core.Result, core.Metrics, error) {
	arr, cv, err := view.array(ec)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	scan := p.scan
	scan.View = cv
	if view.rc == nil || len(view.hot) == 0 || len(view.hot) == p.reach.size(arr) {
		return core.ArrayConsolidate(ctx, arr, scan)
	}
	scan.Hot, scan.OnlyHot = view.hot, true
	res, m, err := core.ArrayConsolidate(ctx, arr, scan)
	if err != nil {
		return nil, m, err
	}
	state, key := "hit", view.st.fingerprint+view.keySuffix("|cold", false)
	cold, ok := view.rc.GetCold(key)
	if !ok {
		scan.OnlyHot = false
		built, bm, err := core.ArrayConsolidate(ctx, arr, scan)
		if err != nil {
			res.Release()
			return nil, m, err
		}
		bm.Add(&m)
		state, m, cold = "built", bm, built.Clone()
		ok = view.rc.PutCold(key, cold, built.Bytes(), view.st.est.IO)
		built.Release()
	}
	if ok {
		view.st.coldKey.cachedUnder(view.rc, key)
	}
	m.ColdCube, m.HotChunks = state, int64(len(view.hot))
	return res, m, res.Merge(cold.(*core.Result))
}

func (p *arrayPlan) Explain() PlanDesc {
	root := PlanDesc{
		Name:    "consolidate",
		Detail:  "aggregate chunk-ordered cells",
		EstRows: p.est.Rows,
	}
	if len(p.scan.Selections) == 0 {
		root.Children = []PlanDesc{{
			Name:    "array-scan",
			Detail:  fmt.Sprintf("decode all %d chunks", p.totalChunk),
			EstRows: p.est.Rows,
			EstIO:   p.est.IO,
		}}
		return root
	}
	probe := PlanDesc{
		Name:    "array-probe",
		Detail:  fmt.Sprintf("probe ~%.0f candidate cells in ~%.0f of %d chunks", p.estProbes, p.estChunks, p.totalChunk),
		EstRows: p.est.Rows,
		EstIO:   p.est.IO,
	}
	for _, s := range p.scan.Selections {
		probe.Children = append(probe.Children, PlanDesc{
			Name:   "index-list",
			Detail: selectionDetail(p.schema, s),
			EstIO:  float64(len(s.Values)) * btreeProbeIO,
		})
	}
	root.Children = []PlanDesc{probe}
	return root
}

func (p *arrayPlan) Annotate(d *PlanDesc, rs RunStats) {
	d.Analyzed = true
	m := rs.Metrics
	d.ActRows = int64(rs.ResultRows)
	d.ActTime = rs.Elapsed
	if len(d.Children) == 0 {
		return
	}
	c := &d.Children[0]
	c.Analyzed = true
	c.ActIO = float64(rs.IO.PhysicalReads)
	if len(p.scan.Selections) == 0 {
		// array-scan: every valid cell visited once.
		c.ActRows = m.CellsScanned
		c.ActDetail = fmt.Sprintf("chunks=%d", m.ChunksRead) + runDetail(m)
		return
	}
	// array-probe: candidate cells probed, hits survive. Chunks the
	// kernel filter-scanned instead report their cells as scanned.
	c.ActRows = m.ProbeHits
	c.ActDetail = fmt.Sprintf("chunks=%d probes=%d hits=%d", m.ChunksRead, m.Probes, m.ProbeHits)
	if m.CellsScanned > 0 {
		c.ActDetail += fmt.Sprintf(" scanned=%d", m.CellsScanned)
	}
	c.ActDetail += runDetail(m)
}

// runDetail renders, for EXPLAIN ANALYZE, how the run was divided: the
// cut at the ingest-touched chunks and the per-worker breakdown. Empty
// for an uncut sequential run, so its output is byte-identical.
func runDetail(m core.Metrics) (s string) {
	if m.ColdCube != "" {
		s = fmt.Sprintf(" cold=%s hot_chunks=%d", m.ColdCube, m.HotChunks)
	}
	if m.ParallelDegree > 1 {
		s += fmt.Sprintf(" workers=%d eff=%.2f rows/worker=%v io/worker=%v",
			m.ParallelDegree, m.ParallelEfficiency, m.WorkerRows, m.WorkerIO)
	}
	return s
}

// starJoinPlan evaluates relationally with the StarJoin operator (§4.3),
// filtering during the scan when selections are present.
type starJoinPlan struct {
	planScan
}

func (p *starJoinPlan) Name() string {
	if len(p.scan.Selections) > 0 {
		return "starjoin-filter"
	}
	return "starjoin"
}

func (p *starJoinPlan) Engine() Engine { return StarJoinEngine }

func (p *starJoinPlan) Estimate(st *catalog.Stats) Cost {
	fr := selectionFractions(st, len(st.Dimensions), p.scan.Selections)
	p.estSel = combinedSelectivity(fr)
	// The star join always scans the whole fact file and hashes every
	// dimension, whatever the selectivity. The per-tuple join/group CPU
	// divides across extent-partitioned workers.
	p.estDeg = core.ClampWorkers(p.scan.Workers, extentUnits(st.FactPages))
	p.est = Cost{
		IO:   float64(st.FactPages + st.DimensionPages()),
		CPU:  float64(st.FactTuples) * cpuTupleCost / float64(p.estDeg),
		Rows: int64(p.estSel*float64(st.FactTuples) + 0.5),
	}
	return p.est
}

func (p *starJoinPlan) Run(ctx context.Context, ec *ExecContext, view *ingestView) (*core.Result, core.Metrics, error) {
	ff, dims, scan, err := p.relationalInputs(ec, view)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	return core.StarJoinConsolidate(ctx, ff, dims, scan)
}

// relationalInputs opens what both relational engines read — the fact
// file and the dimension tables — and completes the plan's scan with
// the delta overlay of the execution's view (planning must not snapshot
// it: the same plan may run later, or never).
func (p *planScan) relationalInputs(ec *ExecContext, view *ingestView) (*factfile.File, []*catalog.DimensionTable, core.ScanSpec, error) {
	scan := p.scan
	dims, err := view.g.dimensions(ec)
	if err != nil {
		return nil, nil, scan, err
	}
	ff, err := view.g.factFile(ec)
	if err != nil {
		return nil, nil, scan, err
	}
	if len(view.hot) == 0 {
		// Nothing in reach was ever ingested into: the plan pays nothing
		// and opens no array (a relational-only database has none).
		return ff, dims, scan, nil
	}
	// Narrowing the touched chunks to the statement's reach is sound for
	// the dirty filter too: a tuple that passes the selections lies in one
	// of their candidate chunks, so a stale one outside them is dropped.
	arr, cv, err := view.array(ec)
	scan.View, scan.Overlay = cv, &core.OverlayFold{Arr: arr, Chunks: view.hot}
	return ff, dims, scan, err
}

func (p *starJoinPlan) Explain() PlanDesc {
	scan := PlanDesc{
		Name:   "factfile-scan",
		Detail: "full scan, hash-join every dimension",
		EstIO:  p.est.IO,
	}
	for _, s := range p.scan.Selections {
		scan.Children = append(scan.Children, PlanDesc{
			Name:   "filter",
			Detail: selectionDetail(p.schema, s),
		})
	}
	return PlanDesc{
		Name:     "consolidate",
		Detail:   "aggregate joined tuples",
		EstRows:  p.est.Rows,
		Children: []PlanDesc{scan},
	}
}

func (p *starJoinPlan) Annotate(d *PlanDesc, rs RunStats) {
	d.Analyzed = true
	d.ActRows = int64(rs.ResultRows)
	d.ActTime = rs.Elapsed
	if len(d.Children) == 0 {
		return
	}
	// factfile-scan: the full scan does all the I/O and visits every
	// fact tuple.
	c := &d.Children[0]
	c.Analyzed = true
	c.ActRows = rs.Metrics.TuplesScanned
	c.ActIO = float64(rs.IO.PhysicalReads)
	c.ActDetail = runDetail(rs.Metrics)
	annotateFold(d, rs.Metrics)
}

// annotateFold adds what pending deltas cost a relational run — whose
// array-side counters are the overlay fold's alone — to its analyzed
// tree, when a touched chunk was in the statement's reach.
func annotateFold(root *PlanDesc, m core.Metrics) {
	if m.OverlayTouched == 0 {
		return
	}
	root.Children = append(root.Children, PlanDesc{
		Name:     "overlay-fold",
		Detail:   "re-aggregate reachable delta-touched chunks from the merged array",
		Analyzed: true,
		ActRows:  m.ProbeHits + m.CellsScanned,
		ActTime:  time.Duration(m.OverlayFoldNS),
		ActDetail: fmt.Sprintf("touched=%d folded=%d probes=%d hits=%d scanned=%d",
			m.OverlayTouched, m.ChunksRead, m.Probes, m.ProbeHits, m.CellsScanned),
	})
}

// bitmapPlan evaluates selections with the bitmap-index + fact-file
// algorithm (§4.5): AND the per-value join bitmaps, fetch qualifying
// tuples in ascending tuple order. The planner only builds it for
// queries with selections that every index covers.
type bitmapPlan struct {
	planScan

	estBits float64 // predicted bitmap pages
	estFtch float64 // predicted fetch pages
}

// chosenDegree is always 1: the engine runs the bitmap plan as one unit
// of work — retrieval and the AND, then the I/O-ordered fetch — whatever
// scan.Workers says, so the plan claims no CPU discount and EXPLAIN
// reports no parallel degree.
func (p *bitmapPlan) chosenDegree() int { return 1 }

func (p *bitmapPlan) Name() string { return "bitmap-factfile" }

func (p *bitmapPlan) Engine() Engine { return BitmapEngine }

func (p *bitmapPlan) Estimate(st *catalog.Stats) Cost {
	fr := selectionFractions(st, len(st.Dimensions), p.scan.Selections)
	p.estSel = combinedSelectivity(fr)
	q := p.estSel * float64(st.FactTuples)

	// Bitmap reads: each selection value fetches one bitmap out of its
	// index blob; amortized per-value pages from the index statistics,
	// floored (a bitmap read always touches at least part of a page).
	var bits float64
	for _, s := range p.scan.Selections {
		per := bitmapFloorIO
		d := &p.schema.Dimensions[s.Dim]
		if s.Level >= 0 && s.Level < len(d.Attrs) && st.Bitmaps != nil {
			if bs, ok := st.Bitmaps[catalog.BitmapKey(d.Name, d.Attrs[s.Level])]; ok && bs.Values > 0 {
				if v := float64(bs.Pages) / float64(bs.Values); v > per {
					per = v
				}
			}
		}
		bits += float64(len(s.Values)) * per
	}

	// Tuple fetches walk the AND-ed bitmap in ascending tuple order, so
	// they never read more than the fact file's pages (§4.5's sequential
	// advantage over an unclustered index scan).
	fetch := q
	if fp := float64(st.FactPages); fetch > fp {
		fetch = fp
	}
	p.estBits, p.estFtch = bits, fetch
	p.est = Cost{
		IO:   bits + fetch,
		CPU:  q * cpuTupleCost,
		Rows: int64(q + 0.5),
	}
	return p.est
}

func (p *bitmapPlan) Run(ctx context.Context, ec *ExecContext, view *ingestView) (*core.Result, core.Metrics, error) {
	ff, dims, scan, err := p.relationalInputs(ec, view)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	src := &core.LOBBitmapSource{
		Lob:  storage.NewLOBStore(ec.BufferPool()),
		Refs: ec.Catalog().BitmapIndexes,
	}
	return core.BitmapSelectConsolidate(ctx, ff, dims, src, scan)
}

func (p *bitmapPlan) Explain() PlanDesc {
	and := PlanDesc{
		Name:   "bitmap-and",
		Detail: fmt.Sprintf("AND %d selection bitmaps", len(p.scan.Selections)),
		EstIO:  p.estBits,
	}
	for _, s := range p.scan.Selections {
		and.Children = append(and.Children, PlanDesc{
			Name:   "bitmap",
			Detail: selectionDetail(p.schema, s),
		})
	}
	return PlanDesc{
		Name:    "consolidate",
		Detail:  "aggregate fetched tuples",
		EstRows: p.est.Rows,
		Children: []PlanDesc{{
			Name:     "factfile-fetch",
			Detail:   "fetch qualifying tuples in ascending tuple order",
			EstRows:  p.est.Rows,
			EstIO:    p.estFtch,
			Children: []PlanDesc{and},
		}},
	}
}

func (p *bitmapPlan) Annotate(d *PlanDesc, rs RunStats) {
	d.Analyzed = true
	m := rs.Metrics
	d.ActRows = int64(rs.ResultRows)
	d.ActTime = rs.Elapsed
	if len(d.Children) == 0 {
		return
	}
	// factfile-fetch: tuples fetched through the AND-ed bitmap; the
	// run's physical reads are attributed here (bitmap pages included —
	// the pool does not split them out).
	fetch := &d.Children[0]
	fetch.Analyzed = true
	fetch.ActRows = m.TuplesFetched
	fetch.ActIO = float64(rs.IO.PhysicalReads)
	if len(fetch.Children) > 0 {
		and := &fetch.Children[0]
		and.Analyzed = true
		and.ActRows = m.TuplesFetched
		and.ActDetail = fmt.Sprintf("bitmaps=%d ands=%d", m.BitmapsRead, m.BitmapANDs)
	}
	annotateFold(d, m)
}
