//go:build !race

// The race detector's sync.Pool drops pooled objects at random, so a
// query arena comes back new far more often than in a normal build: the
// byte gate below means nothing under -race and is left out of it.

package core

import (
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
