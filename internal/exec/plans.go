package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bitmap"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/factfile"
	"repro/internal/storage"
)

// Cost is a plan's estimate: the work it will do, counted from the
// statement's resolved selection and the statistics, and what that work
// costs under the calibrated model (DESIGN §3b).
type Cost struct {
	NS   float64 // predicted time, nanoseconds
	IO   float64 // pages the plan reads, every one as if cold
	Rows int64   // estimated qualifying fact tuples
	Work Work
}

// Total is the scalar the planner minimizes.
func (c Cost) Total() float64 { return c.NS }

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("cost=%.1fus io=%.1f rows=%d", c.NS/1e3, c.IO, c.Rows)
}

// Work is what a plan reads and does, in the units the cost model
// prices. The planner counts it before a run; a run's metrics count the
// same units.
type Work struct {
	Chunks float64 // array chunks read (priced through their pages and cells)
	Cells  float64 // cells folded by a scan or filter-scan
	Probes float64 // candidate cells a seek visits
	Tuples float64 // fact tuples joined: scanned, or fetched through a bitmap
	Words  float64 // bitmap words set, cleared, ORed, ANDed or scanned
	Pages  float64 // page pins: B-tree, chunk, bitmap, fact and dimension
}

// pricing is what the planner prices work with: the cost model and the
// share of page reads expected to miss the pool — none when the volume
// fits in it, otherwise the share of the volume it cannot hold.
type pricing struct {
	model *catalog.CostModel
	miss  float64
}

// price is the predicted time in nanoseconds of w, reading io distinct
// pages, at parallel degree deg: every pin costs a hit, and the share
// of the distinct pages the pool misses a read each. The CPU work
// divides across the workers, the page reads do not (the pool is
// shared).
func (pr pricing) price(w Work, io float64, deg int) float64 {
	m := pr.model
	cpu := w.Cells*m.CellNS + w.Probes*m.ProbeNS + w.Tuples*m.TupleNS + w.Words*m.WordNS
	return cpu/float64(max(deg, 1)) + w.Pages*m.PageHitNS + io*pr.miss*m.PageMissNS
}

// String renders the model and the miss share, as EXPLAIN prints them.
func (pr pricing) String() string {
	return fmt.Sprintf("%s miss_share=%.2f", pr.model, pr.miss)
}

// PlanDesc is one operator of an EXPLAIN plan tree. The Est fields come
// from planning; the Act fields are filled by Annotate after an EXPLAIN
// ANALYZE run (Analyzed marks a node that carries actuals).
type PlanDesc struct {
	Name      string
	Detail    string
	EstRows   int64
	EstIO     float64
	EstDetail string // operator-specific counted inputs
	Children  []PlanDesc

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
	// Estimate counts the plan's work from the statement's resolved
	// selection and the load-time statistics, and prices it. It must
	// tolerate incomplete statistics (missing array or bitmap sections
	// simply don't arise: the planner only builds plans whose physical
	// objects exist).
	Estimate(st *catalog.Stats, pr pricing) Cost
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
	// reached is the statement's resolved selection the plan runs by.
	reached() *chunkReach
}

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
	reach  *chunkReach // the statement's resolved selection and its work

	est    Cost
	estSel float64
	// estDeg is scan.Workers clamped to the plan's work units by
	// Estimate; 0 until then.
	estDeg int
}

func (p *planScan) reached() *chunkReach { return p.reach }

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

// Estimate prices what the statement's reach counted from the chunk
// directory: the candidate chunks' extents and cells, the probes the
// kernel will seek, and the B-tree pages the index-list lookups pinned.
// The rows are the selected share of the valid cells.
func (p *arrayPlan) Estimate(st *catalog.Stats, pr pricing) Cost {
	a := st.Array
	if a == nil || p.reach == nil {
		return Cost{}
	}
	p.haveEst = true
	p.totalChunk = a.NumChunks
	w := p.reach.work
	work := Work{
		Chunks: float64(w.Chunks),
		Cells:  float64(w.Cells),
		Probes: float64(w.Probes),
		Pages:  float64(w.Pages),
	}
	p.estSel = 1
	if res := p.reach.res; res != nil {
		p.estSel = res.Selectivity()
		work.Pages += float64(res.Pages)
	}
	p.estDeg = core.ClampWorkers(p.scan.Workers, int(w.Chunks))
	p.est = Cost{
		NS:   pr.price(work, work.Pages, p.estDeg),
		IO:   work.Pages,
		Rows: int64(p.estSel*float64(a.ValidCells) + 0.5),
		Work: work,
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
	scan.View, scan.Resolved = cv, p.reach.resolved()
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
	w := p.est.Work
	probe := PlanDesc{
		Name:    "array-probe",
		Detail:  fmt.Sprintf("probe ~%.0f candidate cells in ~%.0f of %d chunks", w.Probes, w.Chunks, p.totalChunk),
		EstRows: p.est.Rows,
		EstIO:   w.Pages,
	}
	if res := p.reach.resolved(); res != nil && p.haveEst {
		probe.EstIO -= float64(res.Pages)
		probe.EstDetail = fmt.Sprintf("chunks=%.0f cells=%.0f probes=%.0f btree_pages=%d",
			w.Chunks, w.Cells, w.Probes, res.Pages)
	}
	for _, s := range p.scan.Selections {
		probe.Children = append(probe.Children, PlanDesc{
			Name:   "index-list",
			Detail: selectionDetail(p.schema, s),
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

func (p *starJoinPlan) Estimate(st *catalog.Stats, pr pricing) Cost {
	p.estSel = tupleShare(st, p.schema, p.scan.Selections)
	// The star join always scans the whole fact file and hashes every
	// dimension, whatever the selectivity. The per-tuple join/group CPU
	// divides across extent-partitioned workers.
	p.estDeg = core.ClampWorkers(p.scan.Workers, extentUnits(st.FactPages))
	work := Work{
		Tuples: float64(st.FactTuples),
		Pages:  float64(st.FactPages + st.DimensionPages()),
	}
	p.est = Cost{
		NS:   pr.price(work, work.Pages, p.estDeg),
		IO:   work.Pages,
		Rows: int64(p.estSel*float64(st.FactTuples) + 0.5),
		Work: work,
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
	scan.Resolved = p.reach.resolved()
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

	estBits  float64 // predicted bitmap pages, index directories included
	estFetch float64 // predicted fact pages fetched
}

// chosenDegree is always 1: the engine runs the bitmap plan as one unit
// of work — retrieval and the AND, then the I/O-ordered fetch — whatever
// scan.Workers says, so the plan claims no CPU discount and EXPLAIN
// reports no parallel degree.
func (p *bitmapPlan) chosenDegree() int { return 1 }

func (p *bitmapPlan) Name() string { return "bitmap-factfile" }

func (p *bitmapPlan) Engine() Engine { return BitmapEngine }

// Estimate counts the §4.5 run from the bitmap statistics. The AND's
// cardinality k is the fact table times each selection's share of it —
// its values' tuple counts, summed — with the selections independent.
// The k tuples lie on the fact pages every selection's values touch:
// counted per value, so a dimension the load order clusters narrows the
// pages as much as it narrows the tuples, and one it scatters does not
// narrow them at all. Spread over those pages, k tuples touch
// P·(1−(1−1/P)^k) of them (Cardenas). The word work is the whole-bitmap
// passes — set, then per selection clear and AND, then the fetch's scan
// — plus each value's literal words, ORed in as the encoding is read.
// Each index read opens with its first page, pinned four times (the
// header and the directory, each after the blob's length), and each
// value's range after the length again.
func (p *bitmapPlan) Estimate(st *catalog.Stats, pr pricing) Cost {
	n, pages := float64(st.FactTuples), float64(max(st.FactPages, 1))
	words := float64(bitmap.WordsFor(st.FactTuples))
	k, cand := n, pages
	work := Work{Words: words * float64(2+2*len(p.scan.Selections))}
	p.estBits = 0
	opened := map[string]bool{}
	for _, s := range p.scan.Selections {
		d := &p.schema.Dimensions[s.Dim]
		key := catalog.BitmapKey(d.Name, d.Attrs[s.Level])
		bs := st.Bitmaps[key]
		if !opened[key] {
			opened[key] = true
			p.estBits++
			work.Pages += 4
		}
		var tuples, touched float64
		for _, v := range s.Values {
			c, ok := valueCount(st, bs, s, v)
			if !ok {
				continue
			}
			tuples += float64(c.Tuples)
			touched += float64(c.FactPages)
			work.Words += float64(c.Bytes) / 8
			// A payload range at a random offset of the blob's pages.
			rng := 1 + float64(max(c.Bytes-1, 0))/storage.PageSize
			p.estBits += rng
			work.Pages += 1 + rng
		}
		k *= min(tuples/n, 1)
		cand *= min(touched/pages, 1)
	}
	p.estFetch = 0
	if k > 0 {
		cand = max(cand, 1)
		p.estFetch = cand * (1 - math.Pow(1-1/cand, k))
	}
	dims := float64(groupedDimPages(st, p.scan.Group))
	work.Tuples = k
	work.Pages += p.estFetch + dims
	io := p.estBits + p.estFetch + dims
	p.estSel = k / n
	p.est = Cost{
		NS:   pr.price(work, io, 1),
		IO:   io,
		Rows: int64(k + 0.5),
		Work: work,
	}
	return p.est
}

// valueCount is the bitmap statistics of one selected value: counted at
// build time, or, in statistics from before the counts, the selection's
// even share of the fact table spread at random over its pages. ok is
// false for a value no tuple carries.
func valueCount(st *catalog.Stats, bs catalog.BitmapIndexStats, s core.Selection, v string) (catalog.ValueCount, bool) {
	if bs.Counts != nil {
		c, ok := bs.Counts[v]
		return c, ok
	}
	distinct, ok := st.AttrDistinctOf(s.Dim, s.Level)
	if !ok {
		distinct = 1
	}
	tuples := float64(st.FactTuples) / float64(distinct)
	pages := float64(max(st.FactPages, 1))
	return catalog.ValueCount{
		Tuples:    uint64(tuples),
		FactPages: int64(pages * (1 - math.Pow(1-1/pages, tuples))),
		Bytes:     bs.Pages * storage.PageSize / int64(max(bs.Values, 1)),
	}, true
}

// tupleShare estimates the share of the fact tuples that pass every
// selection, the selections independent: a selection's share is its
// values' tuple counts (valueCount) over the fact table.
func tupleShare(st *catalog.Stats, schema *catalog.StarSchema, sels []core.Selection) float64 {
	share := 1.0
	for _, s := range sels {
		d := &schema.Dimensions[s.Dim]
		bs := st.Bitmaps[catalog.BitmapKey(d.Name, d.Attrs[s.Level])]
		var tuples float64
		for _, v := range s.Values {
			c, _ := valueCount(st, bs, s, v)
			tuples += float64(c.Tuples)
		}
		share *= min(tuples/float64(max(st.FactTuples, 1)), 1)
	}
	return share
}

// groupedDimPages totals the heap pages of the dimensions a relational
// run hashes for its grouping.
func groupedDimPages(st *catalog.Stats, group core.GroupSpec) int64 {
	var n int64
	for d, g := range group {
		if g.Target != core.Collapse && d < len(st.Dimensions) {
			n += st.Dimensions[d].Pages
		}
	}
	return n
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
	w := p.est.Work
	and := PlanDesc{
		Name:      "bitmap-and",
		Detail:    fmt.Sprintf("AND %d selection bitmaps", len(p.scan.Selections)),
		EstRows:   p.est.Rows,
		EstIO:     p.estBits,
		EstDetail: fmt.Sprintf("words=%.0f", w.Words),
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
			EstIO:    p.estFetch,
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
