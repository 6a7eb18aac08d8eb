package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/array"
)

// Cuboid is one group-by of a data cube: the subset of dimensions
// grouped (positions into the original GroupSpec's grouped dimensions,
// in dimension order) and its result.
type Cuboid struct {
	// GroupDims holds the dimension positions grouped in this cuboid.
	GroupDims []int
	Result    *Result
}

// Key renders the cuboid's dimension subset for lookups ("0,2").
func (c Cuboid) Key() string { return subsetKey(c.GroupDims) }

func subsetKey(dims []int) string {
	if len(dims) == 0 {
		return "()"
	}
	out := ""
	for i, d := range dims {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", d)
	}
	return out
}

// ArrayCube computes the full data cube over the grouped dimensions of
// spec: one cuboid per subset of the grouped dimensions (2^g results,
// where g is the number of non-collapsed dimensions in spec).
//
// Following the array-based simultaneous-aggregation idea of the
// paper's companion work [ZDN97], the base (finest) cuboid is computed
// with a single pass over the array, and every coarser cuboid is rolled
// up from its smallest already-materialized parent in the cube lattice —
// the aggregates are distributive, so no second array scan is needed.
func ArrayCube(a *array.Array, spec GroupSpec) ([]Cuboid, Metrics, error) {
	base, m, err := ArrayConsolidate(context.TODO(), a, ScanSpec{Group: spec})
	if err != nil {
		return nil, m, err
	}
	g := len(base.groupDims)
	if g > 20 {
		return nil, m, fmt.Errorf("core: cube over %d dimensions (2^%d cuboids)", g, g)
	}

	// Materialize subsets largest-first so every cuboid's parents exist.
	byKey := map[string]*Result{subsetKey(base.groupDims): base}
	cuboids := []Cuboid{{GroupDims: base.groupDims, Result: base}}

	subsets := allSubsets(base.groupDims)
	sort.Slice(subsets, func(i, j int) bool { return len(subsets[i]) > len(subsets[j]) })
	for _, sub := range subsets {
		if len(sub) == g {
			continue // the base
		}
		parentDims, dropIdx, err := bestParent(base, sub, byKey)
		if err != nil {
			return nil, m, err
		}
		parent := byKey[subsetKey(parentDims)]
		res, err := parent.RollUp(dropIdx)
		if err != nil {
			return nil, m, err
		}
		byKey[subsetKey(sub)] = res
		cuboids = append(cuboids, Cuboid{GroupDims: sub, Result: res})
	}
	return cuboids, m, nil
}

// allSubsets enumerates every subset of dims (including empty and full).
func allSubsets(dims []int) [][]int {
	n := len(dims)
	out := make([][]int, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		var sub []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, dims[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

// bestParent picks, among the one-dimension-larger supersets of sub that
// are already materialized, the one whose extra dimension has the
// smallest cardinality — the smallest cube to scan during roll-up.
func bestParent(base *Result, sub []int, byKey map[string]*Result) ([]int, int, error) {
	inSub := map[int]bool{}
	for _, d := range sub {
		inSub[d] = true
	}
	bestCard := -1
	var bestDims []int
	bestDrop := -1
	for gi, d := range base.groupDims {
		if inSub[d] {
			continue
		}
		// Parent = sub ∪ {d}, in dimension order.
		parent := make([]int, 0, len(sub)+1)
		dropIdx := -1
		for _, pd := range base.groupDims {
			if pd == d {
				dropIdx = len(parent)
				parent = append(parent, pd)
			} else if inSub[pd] {
				parent = append(parent, pd)
			}
		}
		if _, ok := byKey[subsetKey(parent)]; !ok {
			continue
		}
		card := len(base.labels[gi])
		if bestCard < 0 || card < bestCard {
			bestCard = card
			bestDims = parent
			bestDrop = dropIdx
		}
	}
	if bestDrop < 0 {
		return nil, 0, fmt.Errorf("core: no materialized parent for cuboid %s", subsetKey(sub))
	}
	return bestDims, bestDrop, nil
}

// CubeNaive computes the same cuboids by re-consolidating the array once
// per subset — the baseline the lattice roll-up is measured against.
func CubeNaive(a *array.Array, spec GroupSpec) ([]Cuboid, Metrics, error) {
	var total Metrics
	var grouped []int
	for i, dg := range spec {
		if dg.Target != Collapse {
			grouped = append(grouped, i)
		}
	}
	if len(grouped) > 20 {
		return nil, total, fmt.Errorf("core: cube over %d dimensions", len(grouped))
	}
	var cuboids []Cuboid
	for _, sub := range allSubsets(grouped) {
		inSub := map[int]bool{}
		for _, d := range sub {
			inSub[d] = true
		}
		subSpec := make(GroupSpec, len(spec))
		for i, dg := range spec {
			if inSub[i] {
				subSpec[i] = dg
			} else {
				subSpec[i] = DimGroup{Target: Collapse}
			}
		}
		res, m, err := ArrayConsolidate(context.TODO(), a, ScanSpec{Group: subSpec})
		if err != nil {
			return nil, total, err
		}
		total.ChunksRead += m.ChunksRead
		total.CellsScanned += m.CellsScanned
		cuboids = append(cuboids, Cuboid{GroupDims: sub, Result: res})
	}
	return cuboids, total, nil
}
