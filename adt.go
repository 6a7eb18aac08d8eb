package repro

import (
	"fmt"

	"repro/internal/array"
)

// The OLAP Array ADT's direct function set (§3.5 of the paper): a Read
// function, a subset-sum function, and a slicing function, addressed by
// dimension keys. These bypass the SQL layer and operate on the array
// exactly as Paradise-SQL method invocations did. Each call reads a
// clone of the shared array handle with the delta overlay's snapshot
// attached, so it sees ingested cells before and after compaction.

// ArrayGet reads one cell of the OLAP array by dimension keys; ok is
// false when any key is unknown or the cell holds no data.
func (db *DB) ArrayGet(keys []int64) (value int64, ok bool, err error) {
	arr, err := db.ex.Context().ArrayClone()
	if err != nil {
		return 0, false, err
	}
	return arr.Get(keys)
}

// ArraySum sums the valid cells inside the inclusive key box
// [loKeys[i], hiKeys[i]] along each dimension. Keys are resolved to
// array indices through the dimension B-trees; only chunks overlapping
// the box are read.
func (db *DB) ArraySum(loKeys, hiKeys []int64) (int64, error) {
	arr, err := db.ex.Context().ArrayClone()
	if err != nil {
		return 0, err
	}
	lo, err := resolveIndexes(arr, loKeys)
	if err != nil {
		return 0, err
	}
	hi, err := resolveIndexes(arr, hiKeys)
	if err != nil {
		return 0, err
	}
	return arr.SumRange(lo, hi)
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
	arr, err := db.ex.Context().ArrayClone()
	if err != nil {
		return nil, err
	}
	di := db.cat.Schema.DimIndex(dim)
	if di < 0 {
		return nil, errUnknownDimension(dim)
	}
	idx, ok, err := arr.Dims()[di].IndexOf(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	var out []ArraySliceCell
	dims := arr.Dims()
	err = arr.Slice(di, idx, func(coords []int, value int64) error {
		keys := make([]int64, len(coords))
		for i, c := range coords {
			keys[i] = dims[i].Keys[c]
		}
		out = append(out, ArraySliceCell{Keys: keys, Value: value})
		return nil
	})
	return out, err
}

// resolveIndexes maps dimension keys to array indices through the
// dimension B-trees, failing on unknown keys.
func resolveIndexes(arr *array.Array, keys []int64) ([]int, error) {
	dims := arr.Dims()
	if len(keys) != len(dims) {
		return nil, fmt.Errorf("repro: %d keys for %d dimensions", len(keys), len(dims))
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		idx, ok, err := dims[i].IndexOf(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("repro: unknown %s key %d", dims[i].Name, k)
		}
		out[i] = idx
	}
	return out, nil
}

func errUnknownDimension(dim string) error {
	return fmt.Errorf("repro: unknown dimension %s", dim)
}
