package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// answer is what the benchmark checks of every reply: how many groups
// came back and the totals of their sums and counts.
type answer struct {
	rows       int
	sum, count int64
}

// stmt is one consolidation query together with the model of what it
// asks, in block terms: a fact qualifies when, on every dimension with a
// selection, its key's block is in the selected set; it lands in the
// group named by its blocks on the grouped dimensions.
type stmt struct {
	sql   string
	class string   // scan, point, mid, broad or wide
	sel   []uint32 // per dimension: bit b set = block b selected; 0 = no selection
	level []int    // per dimension: 0 = not grouped, 1 or 2 = grouped at hX1 / hX2
	want  *answer  // set for fixed populations; nil = fold when the reply arrives
}

// newStmt renders the SQL for a selection and grouping. agg is the
// aggregate call, e.g. "sum(volume)"; the reply carries every group's
// full state whichever is asked.
func newStmt(spec cubeSpec, class, agg string, sel []uint32, level []int) *stmt {
	var attrs, tables, preds []string
	for d := range spec.dims {
		if level[d] == 0 && sel[d] == 0 {
			continue
		}
		tables = append(tables, dimName(d))
		if level[d] != 0 {
			attrs = append(attrs, attrName(d, level[d]))
		}
		if sel[d] == 0 {
			continue
		}
		var vals []string
		for b := 0; b < spec.blocksIn(d); b++ {
			if sel[d]&(1<<b) != 0 {
				vals = append(vals, "'"+attrValue(2, b)+"'")
			}
		}
		col := dimName(d) + "." + attrName(d, 2)
		if len(vals) == 1 {
			preds = append(preds, col+" = "+vals[0])
		} else {
			preds = append(preds, col+" in ("+strings.Join(vals, ", ")+")")
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "select %s", agg)
	for _, a := range attrs {
		fmt.Fprintf(&b, ", %s", a)
	}
	fmt.Fprintf(&b, " from fact, %s", strings.Join(tables, ", "))
	if len(preds) > 0 {
		fmt.Fprintf(&b, " where %s", strings.Join(preds, " and "))
	}
	if len(attrs) > 0 {
		fmt.Fprintf(&b, " group by %s", strings.Join(attrs, ", "))
	}
	return &stmt{sql: b.String(), class: class, sel: sel, level: level}
}

// oracle holds the model's totals per block cell: the sum and count of
// the valid cells whose keys fall in each combination of blocks. Every
// statement the benchmark sends is a function of these totals, so an
// expected answer costs at most one pass over them (10^4 for D1) rather
// than one over the facts.
type oracle struct {
	spec       cubeSpec
	sum, count []int64
}

func newOracle(c *cube) *oracle {
	n := 1
	for d := range c.spec.dims {
		n *= c.spec.blocksIn(d)
	}
	o := &oracle{spec: c.spec, sum: make([]int64, n), count: make([]int64, n)}
	keys := make([]int64, len(c.spec.dims))
	blocks := make([]int, len(keys))
	for id, v := range c.vals {
		if v < 0 {
			continue
		}
		c.spec.keysOf(id, keys)
		cell := o.cellOf(keys, blocks)
		o.sum[cell] += int64(v)
		o.count[cell]++
	}
	return o
}

// cellOf maps dimension keys to the block cell holding them, leaving the
// per-dimension blocks in blocks.
func (o *oracle) cellOf(keys []int64, blocks []int) int {
	cell := 0
	for d, k := range keys {
		blocks[d] = o.spec.blockOf(d, int(k))
		cell = cell*o.spec.blocksIn(d) + blocks[d]
	}
	return cell
}

// fold is the running state of one statement over the model: totals per
// group, and the answer they add up to. htap moves it forward batch by
// batch with apply.
type fold struct {
	st           *stmt
	spec         cubeSpec
	gsum, gcount []int64
	ans          answer
}

// start folds the block totals into st's groups.
func (o *oracle) start(st *stmt) *fold {
	groups := 1
	for d := range o.spec.dims {
		if st.level[d] != 0 {
			groups *= o.spec.blocksIn(d)
		}
	}
	f := &fold{st: st, spec: o.spec, gsum: make([]int64, groups), gcount: make([]int64, groups)}
	blocks := make([]int, len(o.spec.dims))
	o.walk(st, 0, 0, blocks, f)
	return f
}

// walk visits every selected block cell, dimension by dimension.
func (o *oracle) walk(st *stmt, d, cell int, blocks []int, f *fold) {
	if d == len(blocks) {
		if o.count[cell] != 0 {
			f.add(blocks, o.sum[cell], o.count[cell])
		}
		return
	}
	for b := 0; b < o.spec.blocksIn(d); b++ {
		if st.sel[d] != 0 && st.sel[d]&(1<<b) == 0 {
			continue
		}
		blocks[d] = b
		o.walk(st, d+1, cell*o.spec.blocksIn(d)+b, blocks, f)
	}
}

// add moves the group holding blocks by (dsum, dcount).
func (f *fold) add(blocks []int, dsum, dcount int64) {
	g := 0
	for d, b := range blocks {
		if f.st.level[d] != 0 {
			g = g*f.spec.blocksIn(d) + b
		}
	}
	was := f.gcount[g]
	f.gsum[g] += dsum
	f.gcount[g] += dcount
	f.ans.sum += dsum
	f.ans.count += dcount
	switch {
	case was == 0 && f.gcount[g] != 0:
		f.ans.rows++
	case was != 0 && f.gcount[g] == 0:
		f.ans.rows--
	}
}

// apply moves the fold by one cell change if the statement selects it.
func (f *fold) apply(blocks []int, dsum, dcount int64) {
	for d, b := range blocks {
		if f.st.sel[d] != 0 && f.st.sel[d]&(1<<b) == 0 {
			return
		}
	}
	f.add(blocks, dsum, dcount)
}

func (o *oracle) answer(st *stmt) answer { return o.start(st).ans }

// scanPopulation is the Query 1 family: every consolidation with no
// selection that groups by one or two dimensions at hX1 or hX2.
func scanPopulation(spec cubeSpec) []*stmt {
	n := len(spec.dims)
	var out []*stmt
	add := func(level []int) {
		out = append(out, newStmt(spec, "scan", "sum(volume)", make([]uint32, n), level))
	}
	for a := 0; a < n; a++ {
		for la := 1; la <= 2; la++ {
			level := make([]int, n)
			level[a] = la
			add(level)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for la := 1; la <= 2; la++ {
				for lb := 1; lb <= 2; lb++ {
					level := make([]int, n)
					level[a], level[b] = la, lb
					add(level)
				}
			}
		}
	}
	return out
}

// selectShapes gives, per class, the IN-list lengths a statement puts on
// the dimensions (0 = no selection) and the share of requests, in
// percent, that draw it; with ten blocks a dimension, S is the product
// of length/10. The lengths are dealt to the dimensions in a drawn order.
var selectShapes = []struct {
	class  string
	weight int
	lens   []int
}{
	{"point", 60, []int{1, 1, 1, 1}}, // S = 1e-4
	{"mid", 10, []int{2, 2, 2, 2}},   // S = 1.6e-3
	{"mid", 10, []int{5, 2, 2, 2}},   // S = 4e-3
	{"mid", 10, []int{2, 2, 2, 0}},   // S = 8e-3, three dimensions
	{"broad", 10, []int{5, 5, 5, 5}}, // S = 0.0625
}

// drawSelect draws one Query 2/3 statement: a shape, the blocks each
// IN list names, and the one dimension it groups by at hX1.
func drawSelect(spec cubeSpec, rng *rand.Rand) *stmt {
	n := len(spec.dims)
	shape := selectShapes[0]
	for r, i := rng.Intn(100), 0; r >= 0; i++ {
		shape = selectShapes[i]
		r -= shape.weight
	}
	sel := make([]uint32, n)
	for i, d := range rng.Perm(n) {
		k := shape.lens[i%len(shape.lens)]
		if k > spec.blocksIn(d) {
			k = spec.blocksIn(d)
		}
		for _, b := range rng.Perm(spec.blocksIn(d))[:k] {
			sel[d] |= 1 << b
		}
	}
	level := make([]int, n)
	level[rng.Intn(n)] = 1
	return newStmt(spec, shape.class, "sum(volume)", sel, level)
}

// widePopulation is the twenty Query 1 statements that group by every
// dimension (10^4 rows on D1): each choice of hX1 or hX2 per dimension,
// and the all-hX1 grouping under four more aggregates.
func widePopulation(spec cubeSpec) []*stmt {
	n := len(spec.dims)
	none := make([]uint32, n)
	var out []*stmt
	for mask := 0; mask < 1<<n; mask++ {
		level := make([]int, n)
		for d := range level {
			level[d] = 1 + mask>>d&1
		}
		out = append(out, newStmt(spec, "wide", "sum(volume)", none, level))
	}
	ones := make([]int, n)
	for d := range ones {
		ones[d] = 1
	}
	for _, agg := range []string{"count(volume)", "min(volume)", "max(volume)", "avg(volume)"} {
		out = append(out, newStmt(spec, "wide", agg, none, ones))
	}
	return out
}

// touchesHot reports whether st reads the last block of the last
// dimension, where htap's writer puts its upserts: such a statement loses
// its cached result to every write batch.
func touchesHot(spec cubeSpec, st *stmt) bool {
	last := len(spec.dims) - 1
	return st.sel[last] == 0 || st.sel[last]&(1<<(spec.blocksIn(last)-1)) != 0
}

// narrowClasses is the order in which the select classes recur down the
// dashboard's ranks: six point, three mid and one broad in ten.
var narrowClasses = []string{"point", "point", "mid", "point", "broad", "point", "mid", "point", "mid", "point"}

// narrowPopulation is the dashboard's n fixed narrow statements in Zipf
// rank order: the scan family spread evenly through the ranks, and
// between them drawn select statements. Which class a rank holds, and
// whether its statement reads the block htap writes to (every fourth
// select statement does), is fixed; the seed draws only the values.
// Zipf(1.1) puts two fifths of the requests on the first three ranks, so
// left to the seed those two properties would decide a run's hit rate.
func narrowPopulation(spec cubeSpec, rng *rand.Rand, n int) []*stmt {
	scans := scanPopulation(spec)
	seen := make(map[string]bool)
	out := make([]*stmt, 0, n)
	selects := 0
	for r := 0; r < n; r++ {
		if (r+1)*len(scans)/n > r*len(scans)/n {
			out = append(out, scans[r*len(scans)/n])
			continue
		}
		class, hot := narrowClasses[selects%len(narrowClasses)], selects%4 == 3
		selects++
		for {
			st := drawSelect(spec, rng)
			if st.class == class && touchesHot(spec, st) == hot && !seen[st.sql] {
				seen[st.sql] = true
				out = append(out, st)
				break
			}
		}
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// (math/rand's Zipf has an unbounded tail; a table over a fixed
// population is exact.)
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for r := range z.cdf {
		total += math.Pow(float64(r+1), -s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r == len(z.cdf) {
		r--
	}
	return r
}
