package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
)

// CuboidResult is one group-by of a data cube: the names of the grouped
// attributes (empty for the apex) and its rows.
type CuboidResult struct {
	GroupAttrs []string
	Rows       []Row
}

// Cube evaluates a consolidation query's full data cube on the OLAP
// array: one result per subset of the query's GROUP BY attributes,
// computed with a single array scan plus lattice roll-ups (the
// simultaneous-aggregation approach of the paper's companion work
// [ZDN97]). The query must have no selections.
func (db *DB) Cube(sql string) ([]CuboidResult, error) {
	spec, err := query.ParseAndCompile(sql, db.cat.Schema)
	if err != nil {
		return nil, err
	}
	if len(spec.Selections) > 0 {
		return nil, fmt.Errorf("repro: Cube does not take selections")
	}
	// Read under the execution context's view, the cube sees the pending
	// deltas, so it agrees with what queries see.
	arr, view, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		return nil, err
	}
	defer hold.Release()
	cuboids, _, err := core.ArrayCube(arr, view, spec.Group)
	if err != nil {
		return nil, err
	}
	// Map dimension positions to attribute names for headers.
	attrOf := make(map[int]string)
	gi := 0
	for d, dg := range spec.Group {
		if dg.Target == core.Collapse {
			continue
		}
		attrOf[d] = spec.GroupAttrs[gi]
		gi++
	}
	out := make([]CuboidResult, 0, len(cuboids))
	for _, c := range cuboids {
		attrs := make([]string, 0, len(c.GroupDims))
		for _, d := range c.GroupDims {
			attrs = append(attrs, attrOf[d])
		}
		out = append(out, CuboidResult{GroupAttrs: attrs, Rows: c.Result.SortedRows()})
	}
	return out, nil
}
