package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/query"
)

// Candidate is one runnable plan with its estimated cost.
type Candidate struct {
	Name   string
	Engine Engine
	Cost   Cost
	Chosen bool
}

// Explanation is the planner's account of one query: the estimated
// combined selectivity S, every runnable candidate with its cost, and
// the chosen plan's operator tree. It is attached to every QueryResult
// and is the payload of EXPLAIN.
type Explanation struct {
	// Chosen is the selected plan's name (QueryResult.Plan).
	Chosen string
	// Engine is the selected plan's engine family.
	Engine Engine
	// Forced is true when the caller pinned the engine; forced engines
	// are never overridden by the cost model.
	Forced bool
	// CostBased is true when persisted statistics drove the choice;
	// false means the legacy heuristic ran (no statistics in the
	// catalog, e.g. a pre-version-2 database).
	CostBased bool
	// Selectivity is the estimated combined selectivity S of the
	// query's selections (1 when there are none or no statistics).
	Selectivity float64
	// Degree is the intra-query parallel degree the chosen plan will run
	// with: the session's setting clamped to the plan's work units
	// (chunks / extents). 1 means sequential.
	Degree int
	// Shard is the sub-query restriction the plan runs under, rendered
	// "shard/shards"; empty for an unrestricted (single-node) query, so
	// existing EXPLAIN output is byte-identical.
	Shard string
	// Candidates lists every runnable plan, cheapest first when
	// CostBased (the chosen one is marked).
	Candidates []Candidate
	// Tree is the chosen plan's operator tree. After EXPLAIN ANALYZE it
	// carries actual rows/IO/time next to the estimates.
	Tree PlanDesc
	// Analyzed is true when the query was executed and Tree carries
	// measured actuals (EXPLAIN ANALYZE).
	Analyzed bool
	// CacheHit is true when the rows were served from the result cache
	// (or a deduplicated concurrent execution) instead of running the
	// plan; CacheEpoch is the ordinal of the catalog generation whose
	// cache held the entry.
	CacheHit   bool
	CacheEpoch uint64
	// Memo is "hit" when the executed statement's text was found in the
	// statement memo and so skipped parse, compile and plan, "miss" when
	// it was planned for this run; empty for a plan-only EXPLAIN and for
	// a query that arrived already compiled.
	Memo string
}

// String renders the explanation: the choice, the candidate costs, and
// the plan tree — the EXPLAIN output format.
func (x *Explanation) String() string {
	var b strings.Builder
	mode := "cost-based"
	if x.Forced {
		mode = "forced"
	} else if !x.CostBased {
		mode = "heuristic (no statistics)"
	}
	if x.Analyzed {
		mode += ", analyzed"
	}
	fmt.Fprintf(&b, "plan: %s  engine=%s  S=%.6g", x.Chosen, x.Engine, x.Selectivity)
	if x.Degree > 1 {
		fmt.Fprintf(&b, "  parallel=%d", x.Degree)
	}
	if x.Shard != "" {
		fmt.Fprintf(&b, "  shard=%s", x.Shard)
	}
	fmt.Fprintf(&b, "  [%s]\n", mode)
	if x.CacheHit {
		fmt.Fprintf(&b, "cache: hit (epoch %d)\n", x.CacheEpoch)
	}
	if x.Memo != "" {
		fmt.Fprintf(&b, "memo: %s\n", x.Memo)
	}
	fmt.Fprintf(&b, "candidates:\n")
	for _, c := range x.Candidates {
		mark := "  "
		if c.Chosen {
			mark = "->"
		}
		fmt.Fprintf(&b, "  %s %-26s %s\n", mark, c.Name, c.Cost)
	}
	fmt.Fprintf(&b, "tree:\n")
	writePlanDesc(&b, &x.Tree, 1)
	return b.String()
}

func writePlanDesc(b *strings.Builder, d *PlanDesc, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(d.Name)
	if d.Detail != "" {
		fmt.Fprintf(b, " [%s]", d.Detail)
	}
	if d.EstRows > 0 || d.EstIO > 0 {
		fmt.Fprintf(b, " (est rows=%d io=%.1f)", d.EstRows, d.EstIO)
	}
	if d.Analyzed {
		fmt.Fprintf(b, " (act rows=%d io=%.1f", d.ActRows, d.ActIO)
		if d.ActTime > 0 {
			fmt.Fprintf(b, " time=%s", d.ActTime.Round(time.Microsecond))
		}
		if d.ActDetail != "" {
			fmt.Fprintf(b, " %s", d.ActDetail)
		}
		b.WriteByte(')')
	}
	b.WriteByte('\n')
	for i := range d.Children {
		writePlanDesc(b, &d.Children[i], depth+1)
	}
}

// statsUsable reports whether the catalog's statistics can cost plans.
func statsUsable(st *catalog.Stats) bool {
	return st != nil && st.FactTuples > 0 && len(st.Dimensions) > 0
}

// plan builds the plan for (spec, engine): the forced plan when engine
// pins one, otherwise the cheapest runnable plan under the cost model
// (or the legacy heuristic when the catalog carries no statistics).
// The returned Explanation always describes what happened. r restricts
// the plan to one shard's data slice (zero = whole database) and
// workers, when > 0, overrides the session parallel degree — both ride
// in on a coordinator's sub-query frame. reach is the statement's, for
// a plan that runs to narrow its overlay fold by.
func (e *Executor) plan(spec *query.Spec, engine Engine, r core.Restriction, workers int, reach *chunkReach) (Plan, *Explanation, error) {
	cat := e.ctx.Catalog()
	if cat.Schema == nil {
		return nil, nil, fmt.Errorf("exec: no schema defined")
	}
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	schema := cat.Schema
	st := cat.Stats

	// The one scan every candidate would run: what the query selects and
	// groups, at the session's degree (or the sub-query's), over r's slice.
	ps := planScan{schema: schema, reach: reach, scan: core.ScanSpec{
		Selections:  spec.Selections,
		Group:       spec.Group,
		Workers:     e.parallelDegree(),
		Restriction: r,
	}}
	if workers > 0 {
		ps.scan.Workers = workers
	}
	newArray := func() Plan { return &arrayPlan{planScan: ps} }
	newStar := func() Plan { return &starJoinPlan{planScan: ps} }
	newBitmap := func() Plan { return &bitmapPlan{planScan: ps} }

	var chosen Plan
	forced := engine != Auto
	switch engine {
	case ArrayEngine:
		if !e.HasArray() {
			return nil, nil, fmt.Errorf("exec: OLAP array not built")
		}
		chosen = newArray()
	case StarJoinEngine:
		chosen = newStar()
	case BitmapEngine:
		if len(spec.Selections) == 0 {
			// The paper's bitmap algorithm exists for selections; a
			// selection-free consolidation runs the star join.
			chosen = newStar()
		} else {
			if !e.HasBitmapIndexes(spec) {
				return nil, nil, fmt.Errorf("exec: bitmap indexes do not cover every selection")
			}
			chosen = newBitmap()
		}
	case Auto:
		// Enumerate runnable candidates in legacy preference order:
		// array, then bitmap, then star join.
		var plans []Plan
		if e.HasArray() {
			plans = append(plans, newArray())
		}
		if len(spec.Selections) > 0 && e.HasBitmapIndexes(spec) {
			plans = append(plans, newBitmap())
		}
		plans = append(plans, newStar())

		if statsUsable(st) {
			chosen = plans[0]
			best := chosen.Estimate(st).Total()
			for _, p := range plans[1:] {
				if c := p.Estimate(st).Total(); c < best {
					chosen, best = p, c
				}
			}
		} else {
			chosen = plans[0] // legacy heuristic: preference order
		}
		return chosen, e.explain(&ps.scan, chosen, plans, false, st), nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown engine %v", engine)
	}
	return chosen, e.explain(&ps.scan, chosen, []Plan{chosen}, forced, st), nil
}

// explain assembles the Explanation for a planning decision over scan.
func (e *Executor) explain(scan *core.ScanSpec, chosen Plan, plans []Plan, forced bool, st *catalog.Stats) *Explanation {
	x := &Explanation{
		Chosen:      chosen.Name(),
		Engine:      chosen.Engine(),
		Forced:      forced,
		CostBased:   !forced && statsUsable(st),
		Selectivity: 1,
	}
	usable := statsUsable(st)
	for _, p := range plans {
		var c Cost
		if usable {
			c = p.Estimate(st)
		}
		x.Candidates = append(x.Candidates, Candidate{
			Name:   p.Name(),
			Engine: p.Engine(),
			Cost:   c,
			Chosen: p == chosen,
		})
	}
	if usable {
		fr := selectionFractions(st, len(st.Dimensions), scan.Selections)
		x.Selectivity = combinedSelectivity(fr)
		sort.SliceStable(x.Candidates, func(i, j int) bool {
			return x.Candidates[i].Cost.Total() < x.Candidates[j].Cost.Total()
		})
	}
	x.Degree = 1
	if pa, ok := chosen.(interface{ chosenDegree() int }); ok {
		x.Degree = pa.chosenDegree()
	}
	if scan.Restriction.Active() {
		x.Shard = scan.Restriction.String()
	}
	x.Tree = chosen.Explain()
	return x
}

// ChosenCost returns the chosen candidate's cost estimate.
func (x *Explanation) ChosenCost() Cost {
	for _, c := range x.Candidates {
		if c.Chosen {
			return c.Cost
		}
	}
	return Cost{}
}
