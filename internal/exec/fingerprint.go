package exec

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
)

// fingerprint renders the normalized semantic key of one planned query:
// the chosen plan and engine, the group-by shape, the aggregates, and
// the selection predicates with their values. Two queries with the same
// fingerprint materialize the same rows, so the result cache — one per
// catalog generation, retired with it — may serve one for the other.
// Selections are normalized — sorted by (dimension, level) with sorted
// value lists — so predicate order and value order in the SQL text do
// not split entries. EXPLAIN/ANALYZE flags are deliberately excluded: an
// analyzed run and a plain run share an entry.
func fingerprint(spec *query.Spec, plan Plan) string {
	var b strings.Builder
	b.WriteString(plan.Name())
	b.WriteByte('|')
	b.WriteString(plan.Engine().String())
	b.WriteString("|g")
	for _, g := range spec.Group {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(g.Target)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(g.Level))
	}
	b.WriteString("|a")
	for _, a := range spec.Aggs {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(a)))
	}
	b.WriteString("|w")
	for _, s := range normalizeSelections(spec.Selections) {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(s.Dim))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Level))
		for _, v := range s.Values {
			b.WriteByte('=')
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte('.')
			b.WriteString(v)
		}
	}
	return b.String()
}

// normalizeSelections returns the selections sorted by (dim, level)
// with each value list sorted, without mutating the spec.
func normalizeSelections(sels []core.Selection) []core.Selection {
	if len(sels) == 0 {
		return nil
	}
	out := make([]core.Selection, len(sels))
	for i, s := range sels {
		vals := append([]string(nil), s.Values...)
		sort.Strings(vals)
		out[i] = core.Selection{Dim: s.Dim, Level: s.Level, Values: vals}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dim != out[j].Dim {
			return out[i].Dim < out[j].Dim
		}
		return out[i].Level < out[j].Level
	})
	return out
}
