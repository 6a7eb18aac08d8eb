package repro

import (
	"fmt"
	"slices"

	"repro/internal/array"
	"repro/internal/core"
)

// The OLAP Array ADT's direct function set (§3.5 of the paper): a Read
// function, a subset-sum function, and a slicing function, addressed by
// dimension keys. These bypass the SQL layer and operate on the array
// exactly as Paradise-SQL method invocations did. Each call reads the
// shared master array through a reader under one published delta view,
// so it sees ingested cells before and after compaction.

// ArrayGet reads one cell of the OLAP array by dimension keys; ok is
// false when any key is unknown or the cell holds no data.
func (db *DB) ArrayGet(keys []int64) (value int64, ok bool, err error) {
	arr, view, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		return 0, false, err
	}
	defer hold.Release()
	return arr.Get(view, keys)
}

// ArraySum sums the valid cells inside the inclusive key box
// [loKeys[i], hiKeys[i]] along each dimension: the cells whose key along
// every dimension lies in its range, whatever order the keys were loaded
// in. Both bounds of each range must be keys of the dimension. Only the
// chunks holding cells of the box are read.
func (db *DB) ArraySum(loKeys, hiKeys []int64) (int64, error) {
	arr, view, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		return 0, err
	}
	defer hold.Release()
	lists, err := keyBox(arr, loKeys, hiKeys)
	if err != nil {
		return 0, err
	}
	var sum int64
	err = core.ArrayBox(arr, view, lists, func(_ []int, value int64) error {
		sum += value
		return nil
	})
	return sum, err
}

// ArraySliceCell is one cell yielded by ArraySlice.
type ArraySliceCell struct {
	// Keys holds the cell's dimension keys.
	Keys  []int64
	Value int64
}

// ArraySlice returns every valid cell whose key along the named
// dimension equals key — the ADT's slicing function.
func (db *DB) ArraySlice(dim string, key int64) ([]ArraySliceCell, error) {
	arr, view, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		return nil, err
	}
	defer hold.Release()
	di := db.cat.Schema.DimIndex(dim)
	if di < 0 {
		return nil, fmt.Errorf("repro: unknown dimension %s", dim)
	}
	idx, ok, err := arr.Dims()[di].IndexOf(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	lists, err := core.SliceBox(arr, di, idx)
	if err != nil {
		return nil, err
	}
	var out []ArraySliceCell
	dims := arr.Dims()
	err = core.ArrayBox(arr, view, lists, func(coords []int, value int64) error {
		keys := make([]int64, len(coords))
		for i, c := range coords {
			keys[i] = dims[i].Keys[c]
		}
		out = append(out, ArraySliceCell{Keys: keys, Value: value})
		return nil
	})
	return out, err
}

// keyBox resolves the key box [lo[i], hi[i]] to each dimension's
// ascending list of the indexes whose keys lie in the range, through the
// dimension B-trees. It fails on an inverted range or an unknown bound.
func keyBox(arr *array.Array, lo, hi []int64) ([][]int, error) {
	dims := arr.Dims()
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return nil, fmt.Errorf("repro: %d and %d keys for %d dimensions", len(lo), len(hi), len(dims))
	}
	lists := make([][]int, len(dims))
	for i, d := range dims {
		if lo[i] > hi[i] || !slices.Contains(d.Keys, lo[i]) || !slices.Contains(d.Keys, hi[i]) {
			return nil, fmt.Errorf("repro: %s key range [%d, %d] is inverted or bounded by an unknown key", d.Name, lo[i], hi[i])
		}
		var err error
		if lists[i], err = d.IndexRange(lo[i], hi[i]); err != nil {
			return nil, err
		}
	}
	return lists, nil
}
