package bitmap

import (
	"math/rand"
	"testing"
)

// randomBitmap fills n bits with ~density ones.
func randomBitmap(rng *rand.Rand, n uint64, density float64) *Bitmap {
	b := New(n)
	for i := uint64(0); i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestParallelAndEqualsSequential checks ParallelAnd against And word
// for word, across sizes that straddle the parallelMinWords threshold
// (small inputs take the sequential path, large ones genuinely split).
func TestParallelAndEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []uint64{0, 1, 63, 64, 1000, 64 * parallelMinWords * 3}
	for _, n := range sizes {
		for _, workers := range []int{1, 2, 8} {
			a := randomBitmap(rng, n, 0.3)
			b := randomBitmap(rng, n, 0.3)

			wantAnd := a.Clone()
			wantAnd.And(b)
			gotAnd := a.Clone()
			gotAnd.ParallelAnd(b, workers)
			for i := range wantAnd.words {
				if gotAnd.words[i] != wantAnd.words[i] {
					t.Fatalf("n=%d workers=%d: ParallelAnd word %d = %x, want %x",
						n, workers, i, gotAnd.words[i], wantAnd.words[i])
				}
			}
		}
	}
}

// TestParallelOpsCountOnce asserts a parallel combine increments the
// process-wide logical-op counter exactly once, like its sequential
// counterpart — the EXPLAIN ANALYZE counters must not depend on the
// degree.
func TestParallelOpsCountOnce(t *testing.T) {
	a := New(64 * parallelMinWords * 2)
	b := New(64 * parallelMinWords * 2)
	before := LogicalOps()
	a.ParallelAnd(b, 8)
	if got := LogicalOps() - before; got != 1 {
		t.Fatalf("logical ops after ParallelAnd = %d, want 1", got)
	}
}
