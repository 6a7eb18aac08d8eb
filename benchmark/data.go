package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/client"
)

// cubeSpec describes a synthetic data set in the shape of the paper's
// §5.4: an n-dimensional cube with uniformly placed valid cells and, per
// dimension, hierarchy attributes hX1 and hX2 that each split the key
// range into `blocks` contiguous blocks. Because both attributes split
// at the same keys, a key's block decides every attribute value it has,
// which is what lets the oracle fold block totals instead of facts.
type cubeSpec struct {
	dims   []int
	blocks int
	cells  int // valid cells
}

// d1 is the paper's Data Set 1, variant 1: 40x40x40x100 at 10 % density.
var d1 = cubeSpec{dims: []int{40, 40, 40, 100}, blocks: 10, cells: 640000}

// cube is a generated data set: vals[id] is the measure of the cell with
// row-major id `id`, or -1 when the cell holds no data. It is both the
// source the database is loaded from and the model the oracle folds, and
// htap applies its acknowledged upserts to it.
type cube struct {
	spec  cubeSpec
	vals  []int8
	valid int
}

func (s cubeSpec) size() int {
	n := 1
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// blockOf maps a key of dimension dim to its hierarchy block.
func (s cubeSpec) blockOf(dim, key int) int {
	b := s.blocks
	if b > s.dims[dim] {
		b = s.dims[dim]
	}
	return key * b / s.dims[dim]
}

// blocksIn reports how many blocks dimension dim has.
func (s cubeSpec) blocksIn(dim int) int {
	if s.blocks > s.dims[dim] {
		return s.dims[dim]
	}
	return s.blocks
}

// keysOf decodes a row-major cell id into per-dimension keys.
func (s cubeSpec) keysOf(id int, keys []int64) {
	for d := len(s.dims) - 1; d >= 0; d-- {
		keys[d] = int64(id % s.dims[d])
		id /= s.dims[d]
	}
}

func (s cubeSpec) idOf(keys []int64) int {
	id := 0
	for d, k := range keys {
		id = id*s.dims[d] + int(k)
	}
	return id
}

// generate places spec.cells valid cells uniformly and gives each a
// measure uniform in [0,100), all drawn from seed.
func generate(spec cubeSpec, seed int64) *cube {
	rng := rand.New(rand.NewSource(seed))
	c := &cube{spec: spec, vals: make([]int8, spec.size())}
	for i := range c.vals {
		c.vals[i] = -1
	}
	for c.valid < spec.cells {
		id := rng.Intn(len(c.vals))
		if c.vals[id] < 0 {
			c.vals[id] = int8(rng.Intn(100))
			c.valid++
		}
	}
	return c
}

// upsert is one absolute cell state a writer sends.
type upsert struct {
	id  int
	val int8
}

// apply writes a batch of upserts into the model.
func (c *cube) apply(batch []upsert) {
	for _, u := range batch {
		if c.vals[u.id] < 0 {
			c.valid++
		}
		c.vals[u.id] = u.val
	}
}

// ingestCells addresses a batch by dimension keys, as the root API's or
// the client's ingest call takes it.
func ingestCells[T repro.IngestCell | client.IngestCell](spec cubeSpec, batch []upsert) []T {
	out := make([]T, len(batch))
	for j, u := range batch {
		keys := make([]int64, len(spec.dims))
		spec.keysOf(u.id, keys)
		out[j] = T{Keys: keys, Value: int64(u.val)}
	}
	return out
}

func dimName(d int) string         { return fmt.Sprintf("dim%d", d) }
func attrName(d, level int) string { return fmt.Sprintf("h%d%d", d, level) }
func attrValue(level, block int) string {
	if level == 1 {
		return fmt.Sprintf("A%d", block)
	}
	return fmt.Sprintf("AA%d", block)
}

func (s cubeSpec) schema() *repro.StarSchema {
	sc := &repro.StarSchema{Fact: repro.FactSchema{Name: "fact", Measure: "volume"}}
	for d := range s.dims {
		sc.Fact.Dims = append(sc.Fact.Dims, dimName(d))
		sc.Dimensions = append(sc.Dimensions, repro.DimensionSchema{
			Name:  dimName(d),
			Key:   fmt.Sprintf("d%d", d),
			Attrs: []string{attrName(d, 1), attrName(d, 2)},
		})
	}
	return sc
}

// factStream yields the valid cells in row-major order, as the paper
// loaded "one tuple for each cell of the array that had valid data".
type factStream struct {
	c    *cube
	next int
	keys []int64
}

func (f *factStream) Next() ([]int64, int64, bool, error) {
	for ; f.next < len(f.c.vals); f.next++ {
		if v := f.c.vals[f.next]; v >= 0 {
			f.c.spec.keysOf(f.next, f.keys)
			f.next++
			return f.keys, int64(v), true, nil
		}
	}
	return nil, 0, false, nil
}

// loadTimes are the wall times of the five load calls, with the WAL
// fsyncs the commit took.
type loadTimes struct {
	dims, facts, array, bitmaps, commit time.Duration
	commitFsyncs                        uint64
}

// removeDB deletes a database file and the two logs beside it.
func removeDB(path string) {
	for _, suffix := range []string{"", ".wal", ".deltawal"} {
		os.Remove(path + suffix)
	}
}

// timed runs fn, records it as a root span when log is not nil, and
// reports how long it took.
func timed(log *spanLog, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if log != nil {
		log.add(name, 0, "", start, end)
	}
	return end.Sub(start), err
}

// load writes the cube into a fresh database file through the root API
// and returns it closed, ready for olapd to open. Each of the five load
// calls is a span in log, if there is one.
func load(c *cube, path string, log *spanLog) (loadTimes, error) {
	var lt loadTimes
	removeDB(path)
	db, err := repro.Open(repro.Options{Path: path})
	if err != nil {
		return lt, err
	}
	err = loadInto(db, c, &lt, log)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return lt, err
}

func loadInto(db *repro.DB, c *cube, lt *loadTimes, log *spanLog) (err error) {
	spec := c.spec
	if err := db.CreateStarSchema(spec.schema()); err != nil {
		return err
	}
	lt.dims, err = timed(log, "repro.LoadDimensionFunc", func() error {
		for d := range spec.dims {
			err := db.LoadDimensionFunc(dimName(d), func(emit func(int64, []string) error) error {
				for k := 0; k < spec.dims[d]; k++ {
					b := spec.blockOf(d, k)
					if err := emit(int64(k), []string{attrValue(1, b), attrValue(2, b)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lt.facts, err = timed(log, "repro.LoadFacts", func() error {
		return db.LoadFacts(&factStream{c: c, keys: make([]int64, len(spec.dims))})
	})
	if err != nil {
		return err
	}
	lt.array, err = timed(log, "repro.BuildArray", func() error { return db.BuildArray(repro.ArrayConfig{}) })
	if err != nil {
		return err
	}
	lt.bitmaps, err = timed(log, "repro.BuildBitmapIndexes", db.BuildBitmapIndexes)
	if err != nil {
		return err
	}
	fsyncs := db.Stats().WAL.Fsyncs
	lt.commit, err = timed(log, "repro.Commit", db.Commit)
	lt.commitFsyncs = db.Stats().WAL.Fsyncs - fsyncs
	return err
}
