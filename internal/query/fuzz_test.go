package query

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// FuzzParseAndCompile feeds arbitrary statement text — the one input a
// client sends that reaches the engine as free text — through the front
// door against a fixed two-dimension schema. It may refuse, but must not
// panic, and what it accepts must be a Spec the engines can index
// without checking: every selection names a real dimension and attribute
// level, and GroupAttrs names one attribute per grouped dimension.
func FuzzParseAndCompile(f *testing.F) {
	schema := &catalog.StarSchema{
		Fact: catalog.FactSchema{Name: "fact", Dims: []string{"dim0", "dim1"}, Measure: "volume"},
		Dimensions: []catalog.DimensionSchema{
			{Name: "dim0", Key: "d0", Attrs: []string{"h01", "h02"}},
			{Name: "dim1", Key: "d1", Attrs: []string{"h11", "h12"}},
		},
	}
	for _, seed := range []string{
		// Queries 1–3 as a load generator writes them: unqualified group
		// attributes, qualified selections, no join predicates.
		"select sum(volume), h01, h11 from fact, dim0, dim1 group by h01, h11",
		"select sum(volume), h01, h11 from fact, dim0, dim1 where dim0.h02 = 'AA1' and dim1.h12 = 'AA3' group by h01, h11",
		"select sum(volume), h01 from fact, dim0, dim1 where dim0.h02 = 'AA1' and dim1.h12 = 'AA3' group by h01",
		"select count(*), min(volume), max(volume), avg(volume), h11 from fact, dim0, dim1 where dim0.h02 in ('AA0', 'AA2', 'AA5') group by h11",
		"explain analyze select sum(volume), dim0.h01 from fact, dim0 where fact.d0 = dim0.d0 group by h01",
		"select sum(volume), d1 from fact, dim1 where dim1.h11 = 'it''s' group by d1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		spec, err := ParseAndCompile(sql, schema)
		if err != nil {
			return
		}
		for _, s := range spec.Selections {
			if s.Dim < 0 || s.Dim >= len(schema.Dimensions) {
				t.Fatalf("%q: selection on dimension %d of %d", sql, s.Dim, len(schema.Dimensions))
			}
			if levels := len(schema.Dimensions[s.Dim].Attrs); s.Level < 0 || s.Level >= levels {
				t.Fatalf("%q: selection on level %d of dimension %d, which has %d", sql, s.Level, s.Dim, levels)
			}
		}
		if len(spec.Group) != len(schema.Dimensions) {
			t.Fatalf("%q: group spec has %d entries for %d dimensions", sql, len(spec.Group), len(schema.Dimensions))
		}
		grouped := 0
		for _, g := range spec.Group {
			if g.Target != core.Collapse {
				grouped++
			}
		}
		if len(spec.GroupAttrs) != grouped {
			t.Fatalf("%q: %d group attributes for %d grouped dimensions", sql, len(spec.GroupAttrs), grouped)
		}
	})
}
