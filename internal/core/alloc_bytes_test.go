//go:build !race

// The race detector's sync.Pool drops pooled objects at random, so a
// query arena comes back new far more often than in a normal build: the
// byte gate below means nothing under -race and is left out of it.

package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestWarmArrayScanAllocBytes is the byte-side gate ci.sh runs beside
// TestWarmDecodeZeroAlloc: a warm sequential Query 1 on scanFixture may
// allocate at most 50 KB. Copying every chunk out of the pool into
// scratch and decoding it into a cell array cost 322 KB; folding the
// chunk-offset pairs where they sit leaves the per-query bookkeeping
// and, amortized, the query arena's occasional new block.
func TestWarmArrayScanAllocBytes(t *testing.T) {
	fx := scanFixture(t)
	for name, spec := range map[string]GroupSpec{
		"narrow": {{Target: GroupByLevel}, {}, {}, {}},
		"wide":   GroupByAttrs(4, 0),
	} {
		run := func() {
			res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Group: spec})
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		run() // warm the arena pool
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B/query", name, per)
		if per > 50<<10 {
			t.Errorf("%s: a warm scan allocates %d B, want at most 50 KB", name, per)
		}
	}
}

// TestWarmArraySelectAllocBytes is the same gate for Query 2/3 on
// scanFixture: a warm sequential point selection (one value on each of
// the four dimensions) and a broad one (five of ten on each) may
// allocate at most 50 KB. Copying each candidate chunk out of the pool
// and decoding it cost about 100 KB and 233 KB; seeking or filtering the
// pairs where they sit leaves the selection's index lists and the
// per-query bookkeeping.
func TestWarmArraySelectAllocBytes(t *testing.T) {
	fx := scanFixture(t)
	values := func(k int) []Selection {
		sels := make([]Selection, 4)
		for d := range sels {
			sels[d] = Selection{Dim: d, Level: 0}
			for v := range k {
				sels[d].Values = append(sels[d].Values, fmt.Sprintf("V%d_0_%d", d, 2*v+d%2))
			}
		}
		return sels
	}
	spec := GroupSpec{{Target: GroupByLevel}, {}, {}, {}}
	for name, sels := range map[string][]Selection{"point": values(1), "broad": values(5)} {
		run := func() {
			res, _, err := ArrayConsolidate(bg, fx.arr, ScanSpec{Selections: sels, Group: spec})
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		run() // warm the arena pool
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B/query", name, per)
		if per > 50<<10 {
			t.Errorf("%s: a warm selection allocates %d B, want at most 50 KB", name, per)
		}
	}
}
