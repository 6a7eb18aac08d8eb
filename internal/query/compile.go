package query

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
)

// Spec is a compiled consolidation query: the engine-neutral form
// consumed by every evaluation algorithm.
type Spec struct {
	// Explain requests planning only: the executor reports the
	// candidate plans and costs without running the query.
	Explain bool
	// Analyze upgrades Explain: the query runs and the reported plan
	// tree carries actual rows, I/O, and wall time per operator.
	Analyze bool
	// Aggs lists the requested aggregates in select-list order. Every
	// plan accumulates full per-group state (sum/count/min/max), so any
	// combination evaluates in one pass.
	Aggs       []core.AggFunc
	Group      core.GroupSpec
	Selections []core.Selection
	// GroupAttrs names the grouped attribute (or key) per grouped
	// dimension, in dimension order, for result headers.
	GroupAttrs []string
}

// Agg returns the first (primary) aggregate, for single-agg callers.
func (s *Spec) Agg() core.AggFunc {
	if len(s.Aggs) == 0 {
		return core.Sum
	}
	return s.Aggs[0]
}

// Compile validates the parsed query against the star schema and lowers
// it to a Spec.
func Compile(q *Query, schema *catalog.StarSchema) (*Spec, error) {
	if schema == nil {
		return nil, fmt.Errorf("query: no schema to compile against")
	}

	// Tables must be the fact table and/or known dimensions. Dimensions
	// referenced by predicates or group-by must be listed (SQL would
	// reject unknown correlation names); the fact table must appear.
	listed := map[string]bool{}
	factListed := false
	for _, tname := range q.Tables {
		switch {
		case tname == schema.Fact.Name:
			factListed = true
		case schema.DimIndex(tname) >= 0:
			listed[tname] = true
		default:
			return nil, fmt.Errorf("query: unknown table %s", tname)
		}
	}
	if !factListed {
		return nil, fmt.Errorf("query: fact table %s must appear in FROM", schema.Fact.Name)
	}

	// Aggregate arguments must be the measure (or * for count).
	for _, call := range q.Aggs {
		switch {
		case call.Arg == "*":
			if call.Func != core.Count {
				return nil, fmt.Errorf("query: %s(*) is not supported; only count(*)", call.Func)
			}
		case call.Arg != schema.Fact.Measure:
			return nil, fmt.Errorf("query: aggregate argument %s is not the measure %s",
				call.Arg, schema.Fact.Measure)
		}
	}

	// resolve maps an attribute reference to (dimension, level). Key
	// attributes resolve to level -1.
	resolve := func(ref AttrRef) (int, int, error) {
		if ref.Table != "" {
			if ref.Table == schema.Fact.Name {
				// fact.dK: the foreign key column, named like the
				// dimension key.
				for di := range schema.Dimensions {
					if schema.Dimensions[di].Key == ref.Attr {
						return di, -1, nil
					}
				}
				return 0, 0, fmt.Errorf("query: fact table has no column %s", ref.Attr)
			}
			di := schema.DimIndex(ref.Table)
			if di < 0 {
				return 0, 0, fmt.Errorf("query: unknown table %s", ref.Table)
			}
			if !listed[ref.Table] {
				return 0, 0, fmt.Errorf("query: table %s not listed in FROM", ref.Table)
			}
			d := &schema.Dimensions[di]
			if ref.Attr == d.Key {
				return di, -1, nil
			}
			if l := d.AttrLevel(ref.Attr); l >= 0 {
				return di, l, nil
			}
			return 0, 0, fmt.Errorf("query: dimension %s has no attribute %s", ref.Table, ref.Attr)
		}
		// Unqualified: search key attributes first, then hierarchy
		// attributes across all dimensions.
		for di := range schema.Dimensions {
			if schema.Dimensions[di].Key == ref.Attr {
				return di, -1, nil
			}
		}
		di, level, err := schema.ResolveAttr(ref.Attr)
		if err != nil {
			return 0, 0, err
		}
		if !listed[schema.Dimensions[di].Name] {
			return 0, 0, fmt.Errorf("query: attribute %s needs dimension %s in FROM",
				ref.Attr, schema.Dimensions[di].Name)
		}
		return di, level, nil
	}

	// Join predicates: every join must be fact.dK = dimK.dK (either
	// side order). They carry no information beyond validation — the
	// star join is implied by the schema.
	for _, j := range q.Joins {
		ld, ll, err := resolve(j.Left)
		if err != nil {
			return nil, err
		}
		rd, rl, err := resolve(j.Right)
		if err != nil {
			return nil, err
		}
		if ld != rd || ll != -1 || rl != -1 {
			return nil, fmt.Errorf("query: unsupported join %s = %s (only fact-to-dimension key joins)",
				j.Left, j.Right)
		}
	}

	aggs := make([]core.AggFunc, 0, len(q.Aggs))
	for _, call := range q.Aggs {
		aggs = append(aggs, call.Func)
	}
	spec := &Spec{Explain: q.Explain, Analyze: q.Analyze, Aggs: aggs}

	// Selections.
	for _, s := range q.Selections {
		di, level, err := resolve(s.Attr)
		if err != nil {
			return nil, err
		}
		if level < 0 {
			return nil, fmt.Errorf("query: selection on key attribute %s is not supported; select on a hierarchy attribute", s.Attr)
		}
		spec.Selections = append(spec.Selections, core.Selection{Dim: di, Level: level, Values: s.Values})
	}

	// Group by.
	group := make(core.GroupSpec, schema.NumDims())
	groupAttr := make([]string, schema.NumDims())
	for _, g := range q.GroupBy {
		di, level, err := resolve(g)
		if err != nil {
			return nil, err
		}
		if group[di].Target != core.Collapse {
			return nil, fmt.Errorf("query: dimension %s grouped twice", schema.Dimensions[di].Name)
		}
		if level < 0 {
			group[di] = core.DimGroup{Target: core.GroupByKey}
			groupAttr[di] = schema.Dimensions[di].Key
		} else {
			group[di] = core.DimGroup{Target: core.GroupByLevel, Level: level}
			groupAttr[di] = schema.Dimensions[di].Attrs[level]
		}
	}
	spec.Group = group
	for di, g := range group {
		if g.Target != core.Collapse {
			spec.GroupAttrs = append(spec.GroupAttrs, groupAttr[di])
		}
	}

	// Projected attributes must be grouped (SQL rule).
	for _, sel := range q.Select {
		di, level, err := resolve(sel)
		if err != nil {
			return nil, err
		}
		g := group[di]
		ok := (level < 0 && g.Target == core.GroupByKey) ||
			(level >= 0 && g.Target == core.GroupByLevel && g.Level == level)
		if !ok {
			return nil, fmt.Errorf("query: selected attribute %s is not in GROUP BY", sel)
		}
	}
	return spec, nil
}

// Error is what ParseAndCompile returns for a statement it rejects — bad
// syntax, or names the schema does not have. Callers that run the
// statement in the same call (the executor's SQL entry points) use
// errors.As to tell a bad statement from a failed execution.
type Error struct{ Err error }

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// ParseAndCompile is the one-call front door used by the executor. Its
// errors are all *Error.
func ParseAndCompile(sql string, schema *catalog.StarSchema) (*Spec, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, &Error{err}
	}
	spec, err := Compile(q, schema)
	if err != nil {
		return nil, &Error{err}
	}
	return spec, nil
}
