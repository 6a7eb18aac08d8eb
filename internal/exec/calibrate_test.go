//go:build !race

// The race detector slows the timed loops tenfold: the budget below
// means nothing under -race and is left out of it.

package exec

import (
	"testing"
	"time"
)

// TestCostModelMeasurementBudget: a load collects statistics three
// times (LoadFacts, BuildArray, BuildBitmapIndexes) and measures the
// cost model each time. The measurement times synthetic kernels and a
// fixed number of page reads, so its cost does not grow with the data:
// three of them must stay within 20 ms, and each yields a model Open
// accepts.
func TestCostModelMeasurementBudget(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	start := time.Now()
	for i := 0; i < 3; i++ {
		m, err := measureCostModel(bp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			t.Logf("model %s", m)
		}
	}
	took := time.Since(start)
	t.Logf("three measurements, one load's worth: %v (the catalog's: %s)", took, cat.Stats.Model)
	if took > 20*time.Millisecond {
		t.Errorf("a load's three cost-model measurements took %v, over 20 ms", took)
	}
}
