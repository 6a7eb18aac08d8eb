package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
)

// tiny is a cube small enough to load and query in milliseconds, with
// dimension sizes the block count does not divide.
var tiny = cubeSpec{dims: []int{12, 11, 10, 13}, blocks: 10, cells: 2500}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, b, other := generate(tiny, 7), generate(tiny, 7), generate(tiny, 8)
	if !reflect.DeepEqual(a.vals, b.vals) {
		t.Fatal("the same seed generated two different cubes")
	}
	if reflect.DeepEqual(a.vals, other.vals) {
		t.Fatal("two seeds generated the same cube")
	}
	if a.valid != tiny.cells {
		t.Fatalf("%d valid cells, want %d", a.valid, tiny.cells)
	}
	draw := func(seed int64) (sql []string) {
		rng := rand.New(rand.NewSource(seed))
		for _, st := range narrowPopulation(tiny, rng, 60) {
			sql = append(sql, st.sql)
		}
		for i := 0; i < 50; i++ {
			sql = append(sql, drawSelect(tiny, rng).sql)
		}
		return sql
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Fatal("the same seed drew two different statement streams")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Fatal("two seeds drew the same statement stream")
	}
}

// naive folds the facts themselves, one by one: the definition the block
// totals are a shortcut for.
func naive(c *cube, st *stmt) answer {
	groups := make(map[[4]int]int64)
	var a answer
	keys := make([]int64, len(c.spec.dims))
	for id, v := range c.vals {
		if v < 0 {
			continue
		}
		c.spec.keysOf(id, keys)
		var g [4]int
		selected := true
		for d, k := range keys {
			b := c.spec.blockOf(d, int(k))
			if st.sel[d] != 0 && st.sel[d]&(1<<b) == 0 {
				selected = false
			}
			if st.level[d] != 0 {
				g[d] = b + 1
			}
		}
		if selected {
			groups[g]++
			a.sum += int64(v)
			a.count++
		}
	}
	a.rows = len(groups)
	return a
}

// every statement family the workloads send, on the tiny cube.
func statements(rng *rand.Rand) []*stmt {
	out := append(scanPopulation(tiny), widePopulation(tiny)...)
	for i := 0; i < 60; i++ {
		out = append(out, drawSelect(tiny, rng))
	}
	return out
}

func TestOracleAgreesWithEveryEngine(t *testing.T) {
	c := generate(tiny, 11)
	path := filepath.Join(t.TempDir(), "tiny.db")
	if _, err := load(c, path, nil); err != nil {
		t.Fatal(err)
	}
	db, err := repro.Open(repro.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	o := newOracle(c)
	check := func(when string) {
		t.Helper()
		for _, st := range statements(rand.New(rand.NewSource(5))) {
			want := o.answer(st)
			if got := naive(c, st); got != want {
				t.Fatalf("%s: %q: block fold %+v, fact fold %+v", when, st.sql, want, got)
			}
			for _, e := range forcedEngines {
				res, err := db.QueryOn(st.sql, e.eng)
				if err != nil {
					t.Fatalf("%s: %q on %s: %v", when, st.sql, e.name, err)
				}
				if got := answerOf(res.Rows); got != want {
					t.Errorf("%s: %q on %s: got %+v, want %+v", when, st.sql, e.name, got, want)
				}
			}
		}
	}
	check("as loaded")

	// The writer's plan: versions must track the model batch by batch,
	// and the engines must see the ingested cells.
	m := &mix{spec: tiny, oracle: o, prime: narrowPopulation(tiny, rand.New(rand.NewSource(1)), 40)}
	batches := planWrites(c, m, rand.New(rand.NewSource(2)), 3)
	for k, batch := range batches {
		if err := db.InsertCells(ingestCells[repro.IngestCell](tiny, batch)); err != nil {
			t.Fatal(err)
		}
		c.apply(batch)
		o = newOracle(c)
		for i, st := range m.prime {
			if want := o.answer(st); m.versions[i][k+1] != want {
				t.Fatalf("after batch %d: %q: planned %+v, model %+v", k, st.sql, m.versions[i][k+1], want)
			}
		}
	}
	check("with deltas pending")
}

func TestDurabilityCheckReadsBackAcknowledgedCells(t *testing.T) {
	c := generate(tiny, 13)
	path := filepath.Join(t.TempDir(), "tiny.db")
	if _, err := load(c, path, nil); err != nil {
		t.Fatal(err)
	}
	m := &mix{spec: tiny, oracle: newOracle(c)}
	batches := planWrites(c, m, rand.New(rand.NewSource(2)), 4)
	db, err := repro.Open(repro.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:3] {
		if err := db.InsertCells(ingestCells[repro.IngestCell](tiny, batch)); err != nil {
			t.Fatal(err)
		}
		c.apply(batch)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checks, failures, err := checkDurable(path, c, batches[:3])
	if err != nil || failures != 0 || checks != 3*batchCells+6 {
		t.Fatalf("three written batches: %d checks, %d failures, err %v", checks, failures, err)
	}
	// A batch the database never got must be missed.
	c.apply(batches[3])
	if _, failures, err = checkDurable(path, c, batches); err != nil || failures == 0 {
		t.Fatalf("a lost batch went unnoticed: %d failures, err %v", failures, err)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(narrowStatements, zipfExponent)
	rng := rand.New(rand.NewSource(1))
	hits := make([]int, narrowStatements)
	for i := 0; i < 100000; i++ {
		hits[z.draw(rng)]++
	}
	if hits[0] < 20000 || hits[0] > 24000 || hits[0] < 2*hits[1]-2000 || hits[narrowStatements-1] == 0 {
		t.Fatalf("rank 0 drawn %d times, rank 1 %d, last rank %d", hits[0], hits[1], hits[narrowStatements-1])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 0, End: 30},
		{ID: 3, Parent: 1, Start: 30, End: 90},
	}
	selfTimes(spans)
	if spans[0].Self != 10 || spans[1].Self != 30 || spans[2].Self != 60 {
		t.Fatalf("self times %d %d %d, want 10 30 60", spans[0].Self, spans[1].Self, spans[2].Self)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	at := func(median, iqr float64) *series {
		return &series{Median: median, Q1: median - iqr/2, Q3: median + iqr/2}
	}
	for _, tc := range []struct {
		def        metricDef
		base, cand *series
		want       string
	}{
		{lower, at(10, 0.2), at(10.5, 0.2), "same"},
		{lower, at(10, 0.2), at(11.5, 0.2), "worse"},
		{lower, at(10, 0.2), at(9.5, 0.2), "same"},
		{lower, at(10, 0.2), at(8.5, 0.2), "better"},
		{lower, at(10, 2.0), at(11.5, 0.2), "unresolved"},
		{higher, at(100, 2), at(85, 2), "worse"},
		{higher, at(100, 2), at(115, 2), "better"},
		{higher, at(100, 2), at(98, 2), "same"},
		{metricDef{Name: "core.x", Better: "lower"}, at(10, 0), at(20, 0), "-"},
	} {
		if _, _, _, got := verdict(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.def.Name, tc.base.Median, tc.cand.Median, got, tc.want)
		}
	}
}

// The contract file and the program must name the same workloads, and
// every metric must carry what the driver requires of it.
func TestContractFile(t *testing.T) {
	ct, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(ct.Workloads), len(workloadDefs))
	}
	for i, w := range ct.Workloads {
		if w.Name != workloadDefs[i].name || w.Why == "" {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadDefs[i].name)
		}
	}
	seen := make(map[string]bool)
	setup := false
	for _, d := range append(append([]metricDef{}, ct.EndToEnd...), ct.PerLayer...) {
		if seen[d.Name] || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: duplicate name, no unit or no direction", d)
		}
		seen[d.Name] = true
	}
	for _, d := range ct.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	raw, _ := os.ReadFile("../BENCHMARK.json")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6 (%v)", len(keys), err)
	}
}
