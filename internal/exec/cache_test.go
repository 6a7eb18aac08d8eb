package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

func TestFingerprintNormalization(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)

	// Same semantics, different predicate order and value order.
	a := `select sum(volume), dim0.h01 from fact, dim0, dim1
	      where dim0.h02 in ('AA1', 'AA0') and dim1.h12 = 'AA0' group by h01`
	b := `select sum(volume), dim0.h01 from fact, dim0, dim1
	      where dim1.h12 = 'AA0' and dim0.h02 in ('AA0', 'AA1') group by h01`
	// Different selection value: must key separately.
	c := `select sum(volume), dim0.h01 from fact, dim0, dim1
	      where dim0.h02 in ('AA1', 'AA0') and dim1.h12 = 'AA1' group by h01`

	fp := func(sql string) string {
		spec, err := query.ParseAndCompile(sql, cat.Schema)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := e.plan(spec, Auto, e.parallelDegree(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(spec, plan, 7)
	}
	if fp(a) != fp(b) {
		t.Fatalf("normalized fingerprints differ:\n%s\n%s", fp(a), fp(b))
	}
	if fp(a) == fp(c) {
		t.Fatalf("different selection values share a fingerprint: %s", fp(a))
	}

	// A different statistics generation keys separately too (plan choice
	// may have shifted).
	spec, err := query.ParseAndCompile(a, cat.Schema)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := e.plan(spec, Auto, e.parallelDegree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(spec, plan, 7) == fingerprint(spec, plan, 8) {
		t.Fatal("stats generation not part of the fingerprint")
	}
}

func TestFingerprintDoesNotMutateSpec(t *testing.T) {
	sels := []core.Selection{
		{Dim: 2, Level: 1, Values: []string{"z", "a"}},
		{Dim: 0, Level: 0, Values: []string{"b"}},
	}
	norm := normalizeSelections(sels)
	if norm[0].Dim != 0 || norm[1].Dim != 2 {
		t.Fatalf("not sorted by dim: %+v", norm)
	}
	if norm[1].Values[0] != "a" {
		t.Fatalf("values not sorted: %+v", norm[1].Values)
	}
	if sels[0].Dim != 2 || sels[0].Values[0] != "z" {
		t.Fatalf("input mutated: %+v", sels)
	}
}

func TestExecutorResultCacheHitAndEpoch(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	e.Context().EnableQueryCache(1 << 20)

	engineExecs := func() int64 {
		total := int64(0)
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
			total += e.Context().Registry().Counter("queries_"+eng.String()+"_total", "").Value()
		}
		return total
	}

	first, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution reported cached")
	}
	execsAfterFirst := engineExecs()

	second, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second execution not served from cache")
	}
	if !core.RowsEqual(first.Rows, second.Rows) {
		t.Fatalf("cached rows differ: %s", core.DiffRows(first.Rows, second.Rows))
	}
	if !second.Explanation.CacheHit {
		t.Fatal("explanation does not report the cache hit")
	}
	if got := engineExecs(); got != execsAfterFirst {
		t.Fatalf("cache hit ran the engine: execs %d -> %d", execsAfterFirst, got)
	}

	// EXPLAIN ANALYZE of the warm query must report the hit.
	qr, err := e.ExecuteSQLContext(context.Background(), "explain analyze "+testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Fatal("explain analyze of warm query missed the cache")
	}
	if text := qr.Explanation.String(); !strings.Contains(text, "cache: hit (epoch") {
		t.Fatalf("EXPLAIN ANALYZE text missing cache line:\n%s", text)
	}

	// DropCaches bumps the epoch: the next run must re-execute.
	if err := e.DropCaches(); err != nil {
		t.Fatal(err)
	}
	third, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("post-invalidation execution served a stale entry")
	}
	if !core.RowsEqual(first.Rows, third.Rows) {
		t.Fatalf("re-executed rows differ: %s", core.DiffRows(first.Rows, third.Rows))
	}
}

func TestExecutorCacheOptOut(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	e.Context().EnableQueryCache(1 << 20)
	e.SetCacheEnabled(false)

	for i := 0; i < 2; i++ {
		qr, err := e.ExecuteSQLContext(context.Background(), testQ2, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if qr.Cached {
			t.Fatalf("run %d: CACHE off session served from cache", i)
		}
	}
	// The opted-out session must not have populated the cache either.
	e2 := NewSessionExecutor(e.Context())
	qr, err := e2.ExecuteSQLContext(context.Background(), testQ2, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("opted-out session populated the shared cache")
	}
	if !e2.CacheEnabled() || e.CacheEnabled() {
		t.Fatal("CacheEnabled flags wrong")
	}
}
