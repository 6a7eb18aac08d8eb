package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/factfile"
)

// TestRestrictionValidate rejects out-of-range shard indexes and accepts
// the zero value (unrestricted).
func TestRestrictionValidate(t *testing.T) {
	// Shards <= 1 disables the restriction, so any Shard is acceptable
	// there; only an active restriction can be out of range.
	good := []Restriction{{}, {Shard: 0, Shards: 1}, {Shard: 7, Shards: 1}, {Shard: 0, Shards: -1},
		{Shard: 0, Shards: 3}, {Shard: 2, Shards: 3}}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", r, err)
		}
	}
	bad := []Restriction{{Shard: 3, Shards: 3}, {Shard: -1, Shards: 3}, {Shard: 2, Shards: 2}}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", r)
		}
	}
}

// TestRestrictionRangesPartition checks that the shard ranges tile the
// unit range exactly — contiguous, disjoint, and covering — for every
// (units, shards) combination, including more shards than units.
func TestRestrictionRangesPartition(t *testing.T) {
	for _, units := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, shards := range []int{1, 2, 3, 5, 9} {
			prevHi := 0
			for i := 0; i < shards; i++ {
				r := Restriction{Shard: i, Shards: shards}
				lo, hi := r.ChunkRange(units)
				if lo != prevHi {
					t.Fatalf("units=%d shards=%d: shard %d starts at %d, want %d", units, shards, i, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("units=%d shards=%d: shard %d has hi %d < lo %d", units, shards, i, hi, lo)
				}
				prevHi = hi
			}
			if prevHi != units {
				t.Fatalf("units=%d shards=%d: union ends at %d", units, shards, prevHi)
			}
		}
	}
}

// TestShardUnionEqualsFull is the cluster's correctness core: for every
// engine, running each shard's restricted consolidation and merging the
// partials with Result.Merge must reproduce the unrestricted run
// bit-for-bit, at every shard count and worker degree — with the data
// at rest, and again with deltas pending over a fact file that is stale
// wherever they touched.
func TestShardUnionEqualsFull(t *testing.T) {
	fx := defaultFixture(t, 77)
	fold, mergedFF, _ := layOverlay(t, rand.New(rand.NewSource(77)), fx)
	if len(fold.Chunks) == 0 {
		t.Fatal("the overlay touched no chunk")
	}
	states := []struct {
		name    string
		overlay *OverlayFold
		truth   *factfile.File
	}{{"at-rest", nil, fx.ff}, {"deltas-pending", fold, mergedFF}}

	for _, tc := range parallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range states {
				want, err := ReferenceConsolidate(st.truth, fx.dims, tc.sels, tc.spec)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				for _, eng := range engines {
					for _, shards := range []int{1, 2, 3, 5} {
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("%s %s shards=%d workers=%d", st.name, eng, shards, workers)
							scan := ScanSpec{Selections: tc.sels, Group: tc.spec, Workers: workers, Overlay: st.overlay}
							var merged *Result
							var scanned int64
							for i := 0; i < shards; i++ {
								scan.Restriction = Restriction{Shard: i, Shards: shards}
								res, m, err := fx.run(bg, eng, scan)
								if err != nil {
									t.Fatalf("%s shard %d: %v", name, i, err)
								}
								scanned += m.TuplesScanned + m.CellsScanned
								if merged == nil {
									merged = res
									continue
								}
								if err := merged.Merge(res); err != nil {
									t.Fatalf("%s merge shard %d: %v", name, i, err)
								}
							}
							if got := merged.SortedRows(); !RowsEqual(got, want) {
								t.Fatalf("%s != reference: %s", name, DiffRows(got, want))
							}
							// Counter conservation: the shards together scan
							// exactly what one unrestricted pass scans.
							scan.Restriction = Restriction{}
							_, fm, err := fx.run(bg, eng, scan)
							if err != nil {
								t.Fatalf("%s unrestricted: %v", name, err)
							}
							if wantScan := fm.TuplesScanned + fm.CellsScanned; scanned != wantScan {
								t.Errorf("%s scanned %d tuples+cells, want %d", name, scanned, wantScan)
							}
						}
					}
				}
			}
		})
	}
}

// TestRestrictedRejectsBadShard checks every engine validates the
// restriction before touching data.
func TestRestrictedRejectsBadShard(t *testing.T) {
	fx := defaultFixture(t, 78)
	bad := Restriction{Shard: 5, Shards: 3}
	spec := GroupByAttrs(3, 0)
	sels := []Selection{{Dim: 0, Level: 1, Values: []string{"V0_1_0"}}}
	for _, eng := range engines {
		for _, sels := range [][]Selection{nil, sels} {
			if _, _, err := fx.run(bg, eng, ScanSpec{Selections: sels, Group: spec, Workers: 1, Restriction: bad}); err == nil {
				t.Errorf("%s sels=%v accepted a bad shard", eng, sels)
			}
		}
	}
}
